#!/usr/bin/env python3
"""Parameter sweeps over the three construction families.

Classifies every instance (fine / amalgam / composite), checks the
equi-isoclinic property spectrally where feasible, and verifies the
resulting circulant conference matrices.
"""

import argparse
import time

import etfkit as ek


def fusion_verdicts(D, H, cert) -> tuple[str, str]:
    """The ECTFF and EITFF verdicts of a fine set, the EITFF one as FAIL
    when it differs from the amalgam certificate; "-" off fine sets."""
    if not cert.is_fine:
        return "-", "-"
    eitff = ek.eitff_check(D, H).passed
    return str(ek.ectff_check(D, H).passed), str(eitff) if eitff == cert.amalgam else "FAIL"


def sweep_twin_primes(qs):
    print("== twin prime power complements ==")
    print(f"{'q':>4} {'group':>16} {'|D|':>5} {'fine':>5} {'amalgam':>8} {'composite':>10} "
          f"{'ectff':>6} {'eitff':>6} {'conf':>6} {'t':>7}")
    for q in qs:
        t0 = time.perf_counter()
        tc = ek.tpp_complement(q)
        cert = ek.classify(tc.D)
        ectff, eitff = fusion_verdicts(tc.D, tc.H, cert)
        conf_ok = "-"
        if cert.amalgam:
            ann = set(tc.H.annihilator().elements)
            gamma = next(c for c in tc.group.characters if c not in ann)
            report = ek.verify_conference(ek.conference_from_amalgam(tc.D, tc.H, gamma))
            conf_ok = f"{report.size}x{report.size}" if report.passed else "FAIL"
        dt = time.perf_counter() - t0
        gname = "x".join(map(str, tc.group.cyclic_orders))
        print(
            f"{q:>4} {gname:>16} {tc.D.size:>5} {str(cert.is_fine):>5} "
            f"{str(cert.amalgam):>8} {str(cert.is_composite):>10} {ectff:>6} {eitff:>6} {conf_ok:>6} {dt:>6.2f}s"
        )


def sweep_singer(pairs):
    print("\n== shifted Singer complements ==")
    print(f"{'(q,j)':>8} {'group':>8} {'|D|':>5} {'S':>4} {'composite':>10} {'ectff':>6} {'eitff':>6} "
          f"{'amalgam conf':>13} {'rds conf':>9} {'t':>7}")
    for (q, j) in pairs:
        t0 = time.perf_counter()
        sc = ek.singer_complement(q, j)
        cert = ek.classify(sc.D)
        ectff, eitff = fusion_verdicts(sc.D, sc.H, cert)
        ann = set(sc.H.annihilator().elements)
        gamma = next(c for c in sc.group.characters if c not in ann)
        r1 = ek.verify_conference(ek.conference_from_amalgam(sc.D, sc.H, gamma))
        r2 = ek.verify_conference(ek.conference_from_srds(sc.A, sc.H, gamma))
        dt = time.perf_counter() - t0
        print(
            f"{f'({q},{j})':>8} {f'Z_{sc.group.order}':>8} {sc.D.size:>5} {cert.welch_s:>4} "
            f"{str(cert.is_composite):>10} {ectff:>6} {eitff:>6} {('pass' if r1.passed else 'FAIL'):>13} "
            f"{('pass' if r2.passed else 'FAIL'):>9} {dt:>6.2f}s"
        )


def sweep_simplicial(qs):
    print("\n== quadratic simplicial relative difference sets ==")
    print(f"{'q':>4} {'group':>8} {'params':>16} {'unbiased':>9} {'gammas':>7} {'conf':>5} {'t':>7}")
    for q in qs:
        t0 = time.perf_counter()
        sr = ek.simplicial_rds_quadratic(q)
        params = ek.certify_rds(sr.A, sr.K)
        unbiased = ek.unbiased_simplices_check(sr.A, sr.K)
        ann = set(sr.K.annihilator().elements)
        gammas = [c for c in sr.group.characters if c not in ann]
        ok = all(
            ek.verify_conference(ek.conference_from_srds(sr.A, sr.K, g)).passed
            for g in gammas
        )
        dt = time.perf_counter() - t0
        print(
            f"{q:>4} {f'Z_{sr.group.order}':>8} {str(params.as_tuple()):>16} "
            f"{str(unbiased.passed):>9} {len(gammas):>7} {('pass' if ok else 'FAIL'):>5} {dt:>6.2f}s"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tpp", default="3,5,7,11,17,23,27")
    parser.add_argument("--singer", default="2:2,3:2,4:2,2:3")
    parser.add_argument("--srds", default="2,3,4,5,7,8,9,11,13")
    args = parser.parse_args()

    sweep_twin_primes([int(x) for x in args.tpp.split(",") if x])
    sweep_singer([tuple(map(int, x.split(":"))) for x in args.singer.split(",") if x])
    sweep_simplicial([int(x) for x in args.srds.split(",") if x])


if __name__ == "__main__":
    main()
