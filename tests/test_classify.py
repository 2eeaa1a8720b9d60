import etfkit as ek


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
