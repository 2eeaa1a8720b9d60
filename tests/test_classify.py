import ast
import importlib.util
import json
import os
import pkgutil
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest

import etfkit as ek
from etfkit import cli, groups
from etfkit.classify import _SliceTable, _appendix_counting_identity

from conftest import oracle_difference_counts, oracle_is_difference_set

classify_module = importlib.import_module("etfkit.classify")


def test_slice_table_rejects_a_subgroup_of_another_group(z15_D):
    z9 = ek.Subgroup.generated_by(ek.group_new([9]), [(3,)])
    with pytest.raises(ValueError, match="same group"):
        ek.is_amalgam(z15_D, ek.Subgroup.full(ek.group_new([5])))
    with pytest.raises(ValueError, match="same group"):
        ek.compute_Dg(z15_D, z9, (1,))


def test_compute_Dg_examples(z15_D, z15_H):
    assert ek.compute_Dg(z15_D, z15_H, (1,)).elements == ((5,), (10,))
    for g in ((2,), (8,), (4,)):
        assert ek.compute_Dg(z15_D, z15_H, g).elements == ((5,), (10,))
    for g in ((0,), (5,), (10,)):
        assert ek.compute_Dg(z15_D, z15_H, g).size == 0
    assert ek.compute_Dg(z15_D, z15_H, (6,)).elements == ((0,), (5,))
    for g in ((11,), (12,), (3,), (14,)):
        assert ek.compute_Dg(z15_D, z15_H, g).elements == ((0,), (10,))


def test_is_fine_examples(z15_D, mcf22):
    H = ek.is_fine(z15_D)
    assert H is not None and H.elements == ((0,), (5,), (10,))
    H = ek.is_fine(mcf22.D)
    assert H is not None and H.order == 4
    assert set(H.elements) == {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)}
    # S is irrational for the (7,3,1) Fano set
    assert ek.is_fine(ek.cyclic_subset(7, [1, 2, 4])) is None
    # not a difference set at all
    assert ek.is_fine(ek.cyclic_subset(15, [1, 2, 3])) is None


def test_is_amalgam_examples(z15_D, z15_H, mcf22):
    assert ek.is_amalgam(z15_D, z15_H)
    slices = {ek.compute_Dg(z15_D, z15_H, g).elements for g in z15_D.group.elements}
    assert slices == {(), ((5,), (10,)), ((0,), (5,)), ((0,), (10,))}
    tc = ek.tpp_complement(5)
    assert not ek.is_amalgam(tc.D, tc.H)  # 216 does not divide 324
    assert not ek.is_amalgam(mcf22.D, mcf22.H)


def z2_4_slices_of_difference_sets():
    """(D, H) in Z_2^4 with every coset slice a difference set of H, while D
    is not a difference set: each nonidentity coset minus its first element."""
    g = ek.group_new([2, 2, 2, 2])
    H = ek.subgroups_of_order(g, 4)[0]
    return ek.subset(g, [x for _, members in H.cosets[1:] for x in members[1:]]), H


def test_is_amalgam_is_false_off_difference_sets():
    D, H = z2_4_slices_of_difference_sets()
    assert ek.certify_difference_set(D) is None
    # each slice is a (4, 3, 2) difference set, but S^3 (3 - 2) = 27 != 81 = D^2
    assert all(ek.compute_Dg(D, H, g).size == 3 for g, _ in H.cosets[1:])
    assert not ek.is_amalgam(D, H)


def test_is_amalgam_needs_a_proper_subgroup(z15_D):
    G = z15_D.group
    with pytest.raises(ValueError, match="H must be a proper subgroup"):
        ek.is_amalgam(z15_D, ek.Subgroup.full(G))
    assert ek.is_composite(z15_D, ek.Subgroup.full(G)) is None


def test_is_composite_examples(z15_D, z15_H):
    witness = ek.is_composite(z15_D, z15_H)
    assert witness is not None
    A, B = witness
    assert set(A.elements) == {(1,), (2,), (8,), (4,)}
    assert B.elements == ((5,), (10,))

    t3 = ek.tpp_complement(3)
    assert ek.is_composite(t3.D, t3.H) is not None

    t11 = ek.tpp_complement(11)
    assert ek.is_amalgam(t11.D, t11.H)
    assert ek.is_composite(t11.D, t11.H) is None


def test_classify_running_example(z15_cert):
    assert z15_cert.is_ds and z15_cert.lam == 4
    assert z15_cert.welch_s == 4
    assert z15_cert.fine_subgroup.elements == ((0,), (5,), (10,))
    assert z15_cert.amalgam and z15_cert.is_composite
    A, B = z15_cert.composite_witness
    assert set(A.elements) == {(1,), (2,), (4,), (8,)}
    assert B.elements == ((5,), (10,))
    assert z15_cert.divisibility["s_divides_d"]
    assert z15_cert.divisibility["s3_divides_d2"]
    assert z15_cert.divisibility["g_minus_d_divides_d_minus_1"]


def test_classify_mcfarland(mcf22_cert):
    assert mcf22_cert.is_ds and mcf22_cert.welch_s == 3
    assert mcf22_cert.is_fine and not mcf22_cert.amalgam
    assert not mcf22_cert.is_composite
    assert not mcf22_cert.divisibility["s3_divides_d2"]


def test_classify_tpp7():
    tc = ek.tpp_complement(7)
    cert = ek.classify(tc.D)
    assert cert.is_ds and cert.welch_s == 8
    assert cert.is_fine and cert.amalgam
    assert not cert.is_composite  # composite only at q = 3


def test_classify_non_ds_reports_witness():
    cert = ek.classify(ek.cyclic_subset(15, [1, 2, 3, 7]))
    assert not cert.is_ds
    assert cert.not_ds_witness is not None
    g1, c1, g2, c2 = cert.not_ds_witness
    assert c1 != c2


def test_classify_s_non_integer():
    cert = ek.classify(ek.cyclic_subset(7, [1, 2, 4]))
    assert cert.is_ds and cert.lam == 1
    assert cert.welch_s is None and not cert.is_fine
    assert "not an integer" in cert.failure_reason


def test_hierarchy_holds_across_instances():
    instances = [
        ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]),
        ek.mcfarland(2, 2).D,
        ek.tpp_complement(3).D,
        ek.tpp_complement(5).D,
        ek.tpp_complement(7).D,
        ek.singer_complement(3, 2).D,
        ek.cyclic_subset(7, [1, 2, 4]),
        ek.cyclic_subset(11, [1, 3, 4, 5, 9]),
        ek.cyclic_subset(13, [0, 1, 3, 9]),
    ]
    for D in instances:
        cert = ek.classify(D)
        if cert.is_composite:
            assert cert.amalgam
        if cert.amalgam:
            assert cert.is_fine
        if cert.is_fine:
            # order of the set must be a perfect square
            from math import isqrt

            order = D.size - cert.lam
            assert isqrt(order) ** 2 == order
            assert cert.divisibility["s_divides_d"]


def test_counting_identity_on_fine_instances():
    # (H-1) Lambda = sum |D_g| (|D_g| - 1) over coset representatives
    for D in [
        ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]),
        ek.mcfarland(2, 2).D,
        ek.tpp_complement(3).D,
        ek.tpp_complement(5).D,
    ]:
        cert = ek.classify(D)
        assert cert.is_fine
        H = cert.fine_subgroup
        total = sum(s.size * (s.size - 1) for s in cert.dg_table.values())
        assert (H.order - 1) * cert.lam == total


def test_counting_identity_failure_reports_both_sides():
    # Singer (2, 2): H of order 3 and four slices of two points, so the
    # identity reads 2 Lambda = 8; a wrong Lambda of 99 gives 198
    fam = ek.singer_complement(2, 2)
    with pytest.raises(AssertionError, match=r"slice counting identity failed: 198 != 8$"):
        _appendix_counting_identity(99, _SliceTable(fam.D, fam.H))


def test_small_counts_stay_on_the_pair_blocks(monkeypatch, tmp_path):
    # McFarland (2, 3) and tpp 17 count at most 26,244 pairs: below the cost
    # rule of the transform, so a transform that refuses to run is not called
    D = ek.mcfarland(2, 3).D
    tpp = ek.tpp_complement(17)
    cli.write_set(tmp_path / "tpp17.json", tpp.D, tpp.H)

    def refuse(*args):
        raise AssertionError("a transform for a small count")

    monkeypatch.setattr(groups, "_ntt_counts", refuse)
    assert ek.classify(D).is_fine
    assert cli.main(["classify", str(tmp_path / "tpp17.json"), "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "classify.report.json").read_text())["certificate"]["is_fine"]


def test_disjoint_subgroup_bound_exhaustive():
    # any subgroup disjoint from a certified difference set has order at most
    # G/(S+1); exhaustive over all subgroups of small-order groups
    cases = [
        ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]),
        ek.mcfarland(2, 2).D,
        ek.tpp_complement(3).D,
        ek.singer_complement(2, 3).D,
    ]
    for D in cases:
        g = D.group
        s = ek.welch_integer_S(D.size, g.order)
        dset = set(D.elements)
        bound = g.order // (s + 1)
        for H in ek.all_subgroups(g):
            if not (set(H.elements) & dset):
                assert H.order <= bound


def test_composite_necessary_conditions():
    # composite implies S^3 | D^2 and (G-D) | (D-1)
    for D in [ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]), ek.tpp_complement(3).D]:
        cert = ek.classify(D)
        assert cert.is_composite
        assert cert.divisibility["s3_divides_d2"]
        assert cert.divisibility["g_minus_d_divides_d_minus_1"]


def test_certificate_serialization(z15_cert):
    data = z15_cert.as_dict()
    assert data["is_difference_set"] and data["lambda"] == 4
    assert data["welch_s"] == 4
    assert data["fine_subgroup"] == [[0], [5], [10]]
    assert data["composite_a"] == [[1], [2], [4], [8]]
    assert data["composite_b"] == [[5], [10]]
    assert data["coset_slices"]["1"] == [[5], [10]]
    import json

    json.dumps(data)  # must be JSON-serializable


def test_classify_tpp71_beyond_4096():
    cert = ek.classify(ek.tpp_complement(71).D)  # G = 5183
    assert cert.is_fine and cert.amalgam and not cert.is_composite


def test_pair_sums_stay_within_one_block():
    # tpp q=47 has |D| = 1152: all its differences at once would be 1152^2
    # pairs, more than one block
    D = ek.tpp_complement(47).D
    pairs = []
    sum_indices = groups.AbelianGroup._sum_indices

    def recording(self, a, b):
        out = sum_indices(self, a, b)
        pairs.append(out.size)
        return out

    with patch.object(groups.AbelianGroup, "_sum_indices", recording):
        cert = ek.classify(D)
    assert cert.is_fine and D.size**2 > groups._PAIR_CHUNK
    assert pairs and max(pairs) <= groups._PAIR_CHUNK


def test_classify_tpp101_peak_memory():
    # a fresh process, so the peak is this classification's; ru_maxrss is in KiB
    code = ("import resource, etfkit as ek; ek.classify(ek.tpp_complement(101).D); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    env = {**os.environ, "PYTHONPATH": str(Path(ek.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 300 * 1024


def test_classify_peaks_no_higher_than_certification(monkeypatch):
    # every stage after the difference counts works on H and G/H; fresh
    # groups, so each traced call builds its own cached tables
    D = ek.singer_complement(2, 7).D

    def fresh():
        return ek.subset(ek.group_new(D.group.cyclic_orders), D.elements)

    fine_subgroup = classify_module._fine_subgroup

    def from_fine_subgroup_on(*args):
        tracemalloc.reset_peak()
        return fine_subgroup(*args)

    monkeypatch.setattr(classify_module, "_fine_subgroup", from_fine_subgroup_on)
    tracemalloc.start()
    try:
        ek.certify_difference_set(fresh())
        certification = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracemalloc.start()
        cert = ek.classify(fresh())
        stages = tracemalloc.get_traced_memory()[1]  # the peak since _fine_subgroup began
    finally:
        tracemalloc.stop()
    assert cert.is_fine
    assert stages <= certification


def test_classify_counts_the_differences_of_a_non_difference_set_once(monkeypatch):
    rng = random.Random(3)
    G = ek.group_new([4, 2, 2])  # G - 1 = 15 divides |D| (|D| - 1) for |D| = 6
    while True:
        D = ek.subset(G, rng.sample(G.elements, 6))
        verdict, _ = oracle_is_difference_set(G.cyclic_orders, D.elements)
        if not verdict:
            break
    counts = oracle_difference_counts(G.cyclic_orders, D.elements)
    values = [counts.get(g, 0) for g in G.elements[1:]]
    least, most = G.elements[1 + values.index(min(values))], G.elements[1 + values.index(max(values))]
    calls = []
    sum_counts = groups._sum_counts

    def counting(*args, **kwargs):
        calls.append(args)
        return sum_counts(*args, **kwargs)

    for module in ("etfkit.groups", "etfkit.designs", "etfkit.classify"):
        monkeypatch.setattr(importlib.import_module(module), "_sum_counts", counting)
    assert ek.classify(D).as_dict() == {
        "group": {"cyclic_orders": [4, 2, 2]},
        "elements": [list(g) for g in D.elements],
        "is_difference_set": False, "lambda": None, "welch_s": None,
        "is_fine": False, "is_amalgam": False, "is_composite": False, "divisibility": {},
        "not_ds_witness": {"element_1": list(least), "count_1": min(values),
                           "element_2": list(most), "count_2": max(values)},
        "failure_reason": "not a difference set",
    }
    assert len(calls) == 1


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(ek.__path__, "etfkit."))
)
def test_invariants_are_not_bare_asserts(module):
    # python -O strips assert statements; invariant checks raise AssertionError
    path = importlib.util.find_spec(module).origin
    tree = ast.parse(Path(path).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} has assert statements at lines {lines}"
