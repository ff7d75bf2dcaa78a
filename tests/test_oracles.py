"""The whole pipeline against published spectra.

λ₂ of the bipartite matrix is |G_v|·λ*, where λ* is the largest |θ| over
the graph's adjacency eigenvalues with one copy of the valency k removed.
The families below have closed-form spectra (Brouwer & Haemers, *Spectra
of Graphs*, 2012; Godsil & Royle, *Algebraic Graph Theory*, 2001), so
these values do not come from this code.  Where λ* is an integer the
bound's verdicts are decided exactly: the proof form holds exactly when
2λ*² > k, the statement form exactly when 2λ*² > k².
"""

import math

import pytest

from stabgap import catalog
from stabgap.pipeline import analyze_case

from cases import paley


def kneser_lambda(n, m):
    return math.comb(n - m - 1, m - 1)


def johnson_lambda(n, m):
    return max(abs((m - i) * (n - m - i) - i) for i in range(1, m + 1))


def cycle_lambda(n):
    if n % 2 == 0:
        return 2
    # 2cos(π/3) = 1: the triangle's λ* is an integer.
    return 1 if n == 3 else 2 * math.cos(math.pi / n)


ORACLES = (
    # kneser-9-4: S_9 on four-subsets, |G_v| = 4!·5! = 2880 and λ* = C(4, 3).
    [
        (catalog._kneser(n, m), kneser_lambda(n, m))
        for n, m in ((6, 2), (7, 2), (8, 2), (8, 3), (9, 4))
    ]
    + [
        (catalog._johnson(n, m), johnson_lambda(n, m))
        for n, m in ((6, 2), (7, 2), (7, 3), (8, 3))
    ]
    + [(catalog._hypercube(d), d) for d in (2, 7)]
    + [(catalog._complete(8), 1)]
    + [(catalog._cycle_dihedral(n), cycle_lambda(n)) for n in (3, 10, 13, 20, 101)]
    + [(catalog._cycle_cyclic(n), cycle_lambda(n)) for n in (11, 16)]
    # Paley P(p) for primes up to 101, |G| = p(p-1)/2 up to 5050.
    + [
        (paley(p), (1 + math.sqrt(p)) / 2)
        for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101)
    ]
)


@pytest.mark.parametrize(
    "spec, lambda_star", ORACLES, ids=[spec.name for spec, _ in ORACLES]
)
def test_lambda2_matches_the_published_spectrum(spec, lambda_star):
    report = analyze_case(spec)
    ratio = report.lambda2 / report.stabilizer_order
    assert math.isclose(ratio, lambda_star, rel_tol=1e-12)
    assert report.normative_ok
    if isinstance(lambda_star, int):
        n, k = report.n_vertices, report.valency_k
        assert report.proof_form_ok == (2 * lambda_star**2 > k)
        assert report.statement_form_ok == (2 * lambda_star**2 > k * k)
        assert report.prop5_branch == ("small-graph" if n < 2 * k else "bound")


def test_the_triangle_is_the_exact_tie_of_the_proof_form():
    # 2λ*² = k = 2: m² < 2λ₂²/k holds with equality, so it must fail.
    report = analyze_case(catalog._cycle_dihedral(3))
    assert report.valency_k == 2 and report.stabilizer_order == 2
    assert report.lambda2 == pytest.approx(2.0, rel=1e-12)
    assert not report.proof_form_ok
    assert report.prop5_branch == "small-graph" and report.normative_ok


def test_a_slow_gap_cycle_is_decided_at_default_options():
    # C_1000: lambda* = 2 (the alternating vector) and the next |theta| is
    # 2cos(2 pi / 1000), so a power iteration stopped when two steps agree
    # ended 1.3e-8 below lambda2 and failed lemma 3; the bracket decides it.
    report = analyze_case(catalog._cycle_dihedral(1000))
    assert report.n_vertices == 1000 and report.stabilizer_order == 2
    assert abs(report.lambda2 - 4.0) <= 1e-9
    assert report.bracket_ok and report.lemma3_ok
    assert report.normative_ok
