"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every check is exact (zero tolerance); the stated runtime budgets
are asserted as part of the criteria.
"""

import random
import time

from braidrev import (
    DimVector,
    EIGHT_SEVENTEEN,
    build_rep,
    enumerate_components,
    detecting_rule,
    make_dim6_detecting,
    recover_dimvector,
    reverse_braid,
    tau_quiver,
    tau_rep,
    trace_of,
    verify_dim42_family,
    verify_even_witness,
    verify_odd_family,
)
from braidrev.braid import _burnside_rank_exact, _sign_matrix
from braidrev.classify import DETECTING, FIXED
from braidrev.families import (
    sample_dim42_params,
    sample_even_matrix,
    sample_stable_rep,
)
from braidrev.linalg import SingularMatrixError
from braidrev.braid import is_simple
from test_braid import random_word


def _finish(num: int, desc: str, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    status = "PASS" if elapsed < budget else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num}: {status} - {desc} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_even_family_fixedness():
    t0 = time.monotonic()
    for k in range(1, 7):
        rng = random.Random(1000 + k)
        for _ in range(20):
            report = verify_even_witness(sample_even_matrix(rng, k))
            assert report.isomorphic, (k, report.identities_checked)
            assert report.witness is not None
    _finish(1, "even family k=1..6, 20 samples each: closed-form identities exact",
            t0, 10.0)


def test_criterion_2_odd_family_fixedness():
    t0 = time.monotonic()
    for k in range(1, 6):
        for trial in range(10):
            report = verify_odd_family(k, seed=2000 + 100 * k + trial)
            checks = dict(report.identities_checked)
            assert checks["hom_dimension_one"], (k, trial)
            assert checks["oracle_witness"], (k, trial)
            assert report.isomorphic and report.witness is not None
    _finish(2, "odd family k=1..5, 10 stable samples each: verified witness, "
               "hom dimension exactly 1", t0, 60.0)


def test_criterion_3_exceptional_component():
    t0 = time.monotonic()
    for trial in range(10):
        rng = random.Random(3000 + trial)
        params = sample_dim42_params(rng)
        report = verify_dim42_family(params)
        checks = dict(report.identities_checked)
        assert checks["cokernel_partition_identity"], trial
        assert checks["jumping_lines_match"], trial
        assert checks["oracle_witness"], trial
        assert report.isomorphic
    _finish(3, "(4,2;2,2,2): oracle isomorphism, jumping-lines match, "
               "partition identity, 10 parameter points", t0, 30.0)


def test_criterion_4_reversion_detection():
    t0 = time.monotonic()
    braid = EIGHT_SEVENTEEN
    reverse = reverse_braid(braid)
    separated = 0
    for trial in range(10):
        rng = random.Random(4000 + trial)
        while True:
            params = [rng.randint(-5, 5) for _ in range(7)]
            try:
                V = make_dim6_detecting(params)
            except SingularMatrixError:
                continue
            phi = build_rep(V)
            if is_simple(phi):
                break
        assert _burnside_rank_exact(phi) == 36, trial
        if trace_of(phi, braid) != trace_of(phi, reverse):
            separated += 1
    assert separated >= 9, f"only {separated}/10 points separated"
    assert separated >= 1
    _finish(4, f"(3,3;2,2,2): simple (Burnside rank 36) at 10 integer points, "
               f"{separated}/10 separate the detection braid", t0, 30.0)


EXPECTED_TABLE = {
    1: {(1, 0, 1, 0, 0)},
    2: {(1, 1, 1, 1, 0), (1, 1, 1, 0, 1)},
    3: {(2, 1, 1, 1, 1)},
    4: {(2, 2, 2, 1, 1)},
    5: {(3, 2, 2, 2, 1), (3, 2, 2, 1, 2)},
    6: {(3, 3, 3, 2, 1), (3, 3, 3, 1, 2), (4, 2, 2, 2, 2)},
}


def _expected_family_fixed(n: int) -> set:
    if n == 1:
        return {(1, 0, 1, 0, 0)}
    out = set()
    if n % 2 == 0:
        k = n // 2
        out |= {(k, k, k, k - 1, 1), (k, k, k, 1, k - 1)}
        if n == 6:
            out.add((4, 2, 2, 2, 2))
    else:
        k = (n - 1) // 2
        out |= {(k + 1, k, k, k, 1), (k + 1, k, k, 1, k)}
    return out


def test_criterion_5_classification():
    t0 = time.monotonic()
    for n in range(1, 41):
        reports = enumerate_components(n)
        fixed = {
            (r.dims.a, r.dims.b, r.dims.x, r.dims.y, r.dims.z)
            for r in reports
            if r.verdict == FIXED
        }
        if n in EXPECTED_TABLE:
            assert fixed == EXPECTED_TABLE[n], n
        assert fixed == _expected_family_fixed(n), n
        for report in reports:
            assert detecting_rule(report.dims) == (report.verdict == DETECTING), (
                report.dims
            )
            if report.verdict == FIXED:
                assert report.component_dim == n, report.dims
    _finish(5, "classification table n=1..6 and families through n=40; "
               "rule and list verdicts agree; fixed components have dim n",
            t0, 5.0)


def test_fixed_exactly_when_component_dim_is_n():
    # The count behind the classification: the orthogonal (tau-fixed)
    # classes are dense in a component of dimension D exactly when D = n.
    # Checked here, not proven; criterion 5 asserts only fixed => D = n.
    for n in range(1, 41):
        for report in enumerate_components(n):
            assert (report.verdict == FIXED) == (report.component_dim == n), report.dims
            if report.verdict == DETECTING:
                assert report.component_dim >= n + 2, report.dims


STRUCTURAL_DIMS = [
    (1, 0, 1, 0, 0),
    (1, 1, 1, 1, 0),
    (1, 1, 1, 0, 1),
    (2, 1, 1, 1, 1),
    (2, 2, 2, 1, 1),
    (3, 2, 2, 2, 1),
    (3, 2, 2, 1, 2),
    (3, 3, 3, 2, 1),
    (3, 3, 2, 2, 2),
    (4, 2, 2, 2, 2),
]


def test_criterion_6_structural_invariants():
    t0 = time.monotonic()
    count = 0
    for repeat in range(5):
        for idx, dims in enumerate(STRUCTURAL_DIMS):
            seed = 6000 + 37 * repeat + idx
            V = sample_stable_rep(DimVector(*dims), random.Random(seed))
            phi = build_rep(V)
            phi.check_relations()
            assert recover_dimvector(phi) == V.dims
            tphi = tau_rep(phi)
            word_rng = random.Random(seed + 1)
            for _ in range(20):
                word = random_word(word_rng)
                assert trace_of(tphi, word) == trace_of(phi, reverse_braid(word))
            count += 1
    assert count == 50
    _finish(6, "50 random representations: braid/central relations, "
               "transpose-reversal traces on 20 words each, dimension recovery",
            t0, 60.0)


def test_criterion_7_transpose_consistency():
    t0 = time.monotonic()
    for trial in range(20):
        dims = STRUCTURAL_DIMS[trial % len(STRUCTURAL_DIMS)]
        V = sample_stable_rep(DimVector(*dims), random.Random(7000 + trial))
        lhs = build_rep(tau_quiver(V))
        tphi = tau_rep(build_rep(V))
        J = _sign_matrix(V.dims)
        assert lhs.X1 == J @ tphi.X1 @ J, dims
        assert lhs.X2 == J @ tphi.X2 @ J, dims
    _finish(7, "transpose involution consistency: building on (B^-1)^tr equals "
               "conjugating the transposed pair by diag(1_a, -1_b), 20 samples",
            t0, 10.0)
