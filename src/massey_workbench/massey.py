"""Massey triple product machinery for a decomposable quasi-morphism middle
class, with the explicit bounded primitive and its tripod cancellation.

Given a quasi-morphism phi with decomposition D, bounded aligned cocycles
omega1 (degree k1) and omega2 (degree k2), the operators below realize:

* eta1(g_1..g_{k1})   = sum_j omega1(g_1,..,g_{k1-1}, z<_j(g_{k1})) * phi(piece_j)
* eta2(h_1..h_{k2})   = sum_j phi(piece_j) * omega2(z>_j(h_1), h_2,..,h_{k2})
* beta1 = (-1)^{k1} omega1 cup phi - delta eta1   (primitive of omega1 cup delta phi)
* beta2 = phi cup omega2 + delta eta2             (primitive of delta phi cup omega2)
* mu    = (-1)^{k1} omega1 cup beta2 - beta1 cup omega2   (the Massey representative)
* eta   = the bridging sum over the decomposition of the middle entry
* P     = omega1 cup eta2 + eta1 cup omega2 - (-1)^{k1} delta eta

with delta P = mu pointwise and P equal, tuple by tuple, to three sums that
cancel positionally down to the thick parts of the tripod of (1, g_{k1},
g_{k1} h_1); at most 3 R-hat terms survive, which bounds sup |P|.

Here z<_j / z>_j are the products of the pieces before / after the j-th one.

An instance builds one eta node per kind, and every builder shares them.
The eta nodes follow the integer convention of ``cochain``: each returns the
numerator of its sum over ``den``, the product of its factors' denominators.
A windowed restriction factor reads only ``K`` letters of the entry, so it is
the same value ``A`` or ``B`` on every piece away from the ends of the entry:
the node sums the few edge pieces and adds ``A B`` times the rest of phi(e)
(README "Eta bulk collapse"). Of the entry beside ``e`` it reads ``K``
letters too, and the node's memo key holds only those. Any other factor
reads the whole entry, so its edge spans every piece. The three-sum sides,
the oracle the primitive is compared with, run their own unshifted term
loop in ``three_sum_residual`` over a per-pair record of the tripod and of
the nonzero-lambda pieces; both read lambda from the table.
"""

from __future__ import annotations

import functools
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from ._parallel import Scan, scan
from .checks import (
    describe_tuple,
    identity_stage,
    sup_scan,
    task_lists,
    vanishing_stage,
)
from .cochain import (
    Cochain,
    EvalContext,
    LettersTuple,
    Restriction,
    _MemoLeaf,
    aligned_letters,
    coboundary,
    cup,
    lincomb,
    qm_cochain,
    random_aligned_tuples,
)
from .decomposition import cut_flags, measure_r_hat, triangle_split
from .errors import UsageError
from .quasimorphism import QuasiMorphism
from .report import ExperimentPlan, Report, StageResult
from .words import Letters

MUTATIONS = ("flip-eta-sign", "shift-z-boundary", "flip-beta1-cup-sign")


@dataclass(frozen=True)
class MasseyInstance:
    """A triple (omega1, delta phi, omega2) prepared for verification.

    ``mutation`` deliberately corrupts one construction step so the test
    suite can confirm the exact checks are not vacuous:

    * ``flip-eta-sign``: the bridge cochain enters the primitive with the
      wrong sign.
    * ``shift-z-boundary``: the prefix/suffix piece products inside the
      eta sums are shifted by one piece.
    * ``flip-beta1-cup-sign``: the cup term of beta1 gets the wrong sign.
    """

    phi: QuasiMorphism
    omega1: Cochain
    omega2: Cochain
    k1: int
    k2: int
    mutation: str | None = None
    # One eta node per kind, shared by every builder (README "Memo key").
    eta1 = functools.cached_property(lambda m: Eta1(m))
    eta2 = functools.cached_property(lambda m: Eta2(m))
    eta_bridge = functools.cached_property(lambda m: EtaBridge(m))

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise UsageError("k1 and k2 must be >= 1")
        if self.omega1.degree != self.k1:
            raise UsageError(f"omega1 degree {self.omega1.degree} != k1 {self.k1}")
        if self.omega2.degree != self.k2:
            raise UsageError(f"omega2 degree {self.omega2.degree} != k2 {self.k2}")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise UsageError(f"unknown mutation {self.mutation!r}")

    @property
    def rank(self) -> int:
        return self.phi.rank

    @property
    def convention_dependent(self) -> bool:
        """Degree-1 factors rely on implicit tuple-shrinking conventions."""
        return min(self.k1, self.k2) == 1


class _EtaBase(_MemoLeaf):
    """The eta family of leaves: a cached bridge sum over the pieces of one
    entry, with factors ``left`` and ``right`` (None when absent, reading 1):
    ``Eta1`` has no right factor and ``Eta2`` no left one. Degree and ``den``
    follow from the factors. A node keeps its instance's ``phi``, ``shift``
    and ``mid = k1 - 1``, not the instance, which caches its nodes.

    ``windows`` is ``(K_L, K_R)``, one ``_window`` per factor, and ``_sum``
    collapses the pieces between the edges they leave (README "Eta bulk
    collapse"). A windowed factor has degree 2, so it reads only ``t[0][-K_L:]``
    (left) or ``t[-1][:K_R]`` (right) of the entry beside ``e``; ``cut`` keeps
    those windows, 0 for any other: its ``_MemoLeaf`` cut (README "Memo key").

    The ``shift-z-boundary`` mutation moves both cut points of a piece one
    piece outward: the prefix of piece j ends where piece j does, and its
    suffix starts where piece j starts.
    """

    __slots__ = ("phi", "left", "right", "degree", "den", "shift", "mid", "windows", "cut")

    def __init__(self, m: MasseyInstance, left: Cochain | None, right: Cochain | None):
        self.phi = m.phi
        self.left = left
        self.right = right
        self.degree = (left.degree if left else 1) + (right.degree if right else 1) - 1
        self.den = (left.den if left else 1) * m.phi.den * (right.den if right else 1)
        self.shift = 1 if m.mutation == "shift-z-boundary" else 0
        self.mid = m.k1 - 1
        self.windows = (_window(left), _window(right))
        self.cut = tuple(k if k < sys.maxsize else 0 for k in self.windows)

    _eval = _MemoLeaf._eval  # in the class dict, where perfbench's tracer wraps it

    def _sum(self, head: LettersTuple, e: Letters, tail: LettersTuple, ctx: EvalContext) -> int:
        """sum_j left(head, z<_j) lambda_j right(z>_j, tail) over the pieces of ``e``.

        Every piece outside the edges (those starting before K_L, up to cut
        ``lo``, and those ending after n - K_R, from cut ``hi``) has the
        factors ``A = left(head, e[:K_L])`` and ``B = right(e[n - K_R:],
        tail)``: the sum is the edge terms plus A B times phi(e) less the
        edge lambdas. When the edges overlap, the right edge starts at
        ``lo``, so every piece is an edge piece and the bulk is 0.
        """
        phi, left, right, shift = self.phi, self.left, self.right, self.shift
        kl, kr = self.windows
        n = len(e)
        flags = cut_flags(phi.spec, e)
        # A piece starts at every 1 of flags, so cut 0 is flags[0].
        lo = flags.find(1, kl)
        if lo < 0:
            lo = n
        hi = max(flags.rfind(1, 0, max(n - kr + 1, 1)) if kr else n, lo)
        lam = phi.numerators.get
        total = edge = 0
        for a, end in ((0, lo), (hi, n)):
            while a < end:
                b = flags.find(1, a + 1, end)
                if b < 0:
                    b = end
                lam_j = lam(e[a:b])
                if lam_j:
                    edge += lam_j
                    pre, suf = (b, a) if shift else (a, b)
                    term = lam_j
                    if left is not None:
                        term *= left._eval(head + (e[: min(pre, kl)],), ctx)
                    if term and right is not None:
                        term *= right._eval((e[max(suf, n - kr) :],) + tail, ctx)
                    total += term
                a = b
        bulk = phi.value_letters(e) - edge if lo < hi else 0
        if bulk and left is not None:
            bulk *= left._eval(head + (e[:kl],), ctx)
        if bulk and right is not None:
            bulk *= right._eval((e[n - kr :],) + tail, ctx)
        return total + bulk


def _window(factor: Cochain | None) -> int:
    """K of a windowed factor, 0 for an absent one, and ``sys.maxsize``, the
    whole entry, for any other."""
    if factor is None:
        return 0
    if isinstance(factor, Restriction) and factor.window:
        return factor.window
    return sys.maxsize


class Eta1(_EtaBase):
    """Correction term whose coboundary makes beta1 bounded."""

    __slots__ = ()

    def __init__(self, m: MasseyInstance):
        super().__init__(m, m.omega1, None)

    def _compute(self, t, ctx):
        return self._sum(t[:-1], t[-1], (), ctx)


class Eta2(_EtaBase):
    """Correction term whose coboundary makes beta2 bounded."""

    __slots__ = ()

    def __init__(self, m: MasseyInstance):
        super().__init__(m, None, m.omega2)

    def _compute(self, t, ctx):
        return self._sum((), t[0], t[1:], ctx)


class EtaBridge(_EtaBase):
    """Triple-product sum over the decomposition of the middle entry."""

    __slots__ = ()

    def __init__(self, m: MasseyInstance):
        super().__init__(m, m.omega1, m.omega2)

    def _compute(self, t, ctx):
        mid = self.mid
        return self._sum(t[:mid], t[mid], t[mid + 1 :], ctx)


eta1 = operator.attrgetter("eta1")
eta2 = operator.attrgetter("eta2")
eta_bridge = operator.attrgetter("eta_bridge")


def _sign(k: int) -> Fraction:
    return Fraction(1) if k % 2 == 0 else Fraction(-1)


def beta1(m: MasseyInstance) -> Cochain:
    """Bounded primitive of omega1 cup delta phi."""
    s = _sign(m.k1)
    if m.mutation == "flip-beta1-cup-sign":
        s = -s
    return lincomb(
        (s, cup(m.omega1, qm_cochain(m.phi))),
        (-1, coboundary(eta1(m))),
    )


def beta2(m: MasseyInstance) -> Cochain:
    """Bounded primitive of delta phi cup omega2."""
    return lincomb(
        (1, cup(qm_cochain(m.phi), m.omega2)),
        (1, coboundary(eta2(m))),
    )


def massey_representative(m: MasseyInstance) -> Cochain:
    """(-1)^k [ (-1)^{k1} omega1 cup beta2 - beta1 cup omega2 ] with k = 2."""
    return lincomb(
        (_sign(m.k1), cup(m.omega1, beta2(m))),
        (-1, cup(beta1(m), m.omega2)),
    )


def mu_simplified(m: MasseyInstance) -> Cochain:
    """(-1)^{k1} omega1 cup delta eta2 + delta eta1 cup omega2."""
    return lincomb(
        (_sign(m.k1), cup(m.omega1, coboundary(eta2(m)))),
        (1, cup(coboundary(eta1(m)), m.omega2)),
    )


def bounded_primitive(m: MasseyInstance) -> Cochain:
    """P = omega1 cup eta2 + eta1 cup omega2 - (-1)^{k1} delta eta."""
    bridge_coeff = -_sign(m.k1)
    if m.mutation == "flip-eta-sign":
        bridge_coeff = -bridge_coeff
    return lincomb(
        (1, cup(m.omega1, eta2(m))),
        (1, cup(eta1(m), m.omega2)),
        (bridge_coeff, coboundary(eta_bridge(m))),
    )


@dataclass
class TriangleTermLedger:
    """Bookkeeping of the positional cancellation across the three sums.

    ``surviving_terms`` lists every (side, j, value) left after removing the
    index-matched pairs whose values are exactly equal, each value the
    numerator of the term over ``den``; ``canceled_count`` counts removed
    terms (two per matched pair); ``bound`` is the total thick length of the
    tripod, so a correct construction never leaves more than ``bound``
    survivors.
    """

    surviving_terms: list[tuple[int, int, int]] = field(default_factory=list)
    canceled_count: int = 0
    bound: int = 0
    thick_lengths: tuple[int, int, int] = (0, 0, 0)
    den: int = 1

    def to_json(self) -> dict:
        return {
            "surviving_terms": [
                {"side": s, "j": j, "value": str(Fraction(v, self.den))}
                for s, j, v in self.surviving_terms
            ],
            "canceled_count": self.canceled_count,
            "bound": self.bound,
            "thick_lengths": list(self.thick_lengths),
        }


def _pair_record(phi: QuasiMorphism, g: Letters, h: Letters) -> tuple:
    """``(n1, n3, thick_lengths, sides)``, the part of a three-sum ledger
    that depends on the aligned pair ``(g, h)`` alone: the piece counts of
    the corners ``c1``, ``c3`` and of the remainders of the tripod of ``(1,
    g, gh)``, from one ``triangle_split`` call, and for the pieces of ``g``,
    ``h`` and ``g h`` in turn, the piece count and ``(j, a, b, lambda_j)``
    for each piece ``j`` with nonzero lambda, ``a`` and ``b`` its ends in
    ``g h``, which is ``g`` followed by ``h``."""
    tri = triangle_split(phi.spec, g, h)
    n1, _, n3 = tri.corner_counts
    lam = phi.numerators.get
    sides = []
    for e, offset in ((g, 0), (h, len(g)), (g + h, 0)):
        cuts = [a for a, flag in enumerate(cut_flags(phi.spec, e)) if flag] + [len(e)]
        pieces = [
            (j, offset + a, offset + b, lam_j)
            for j, (a, b) in enumerate(zip(cuts, cuts[1:]))
            if (lam_j := lam(e[a:b]))
        ]
        sides.append((len(cuts) - 1, tuple(pieces)))
    return n1, n3, tri.thick_lengths, tuple(sides)


def three_sum_residual(
    m: MasseyInstance, t: LettersTuple, ctx: EvalContext | None = None
) -> tuple[int, TriangleTermLedger]:
    """The three decomposition sums with the index-matched corner pairs
    cancelled: the numerator of the full alternating total over
    ``ledger.den``, and the ledger.

    Side 1 runs over the pieces of g_{k1}, side 2 over those of h_1, side 3
    (negated) over those of g_{k1} h_1; piece j gives ``omega1(head, z<_j)
    lambda_j omega2(z>_j, tail)`` with the products taken in g h, and 0
    when lambda_j or the omega1 factor vanishes (omega2 is then not
    evaluated). The sides are the oracle of the primitive, so the
    ``shift-z-boundary`` mutation does not shift them. For aligned input
    the first |D(c1)| terms of sides 1 and 3 coincide pairwise, as do the
    last |D(c3)| terms of sides 2 and 3; a pair is only removed if its two
    values are exactly equal, so any construction error surfaces as excess
    survivors. ``ctx`` keeps the ``_pair_record`` of each ``(phi, g, h)``.
    """
    k1 = m.k1
    if len(t) != k1 + m.k2:
        raise UsageError(f"expected arity {k1 + m.k2}, got {len(t)}")
    if not aligned_letters(t):
        raise UsageError("three-sum residual is defined on aligned tuples")
    ctx = ctx if ctx is not None else EvalContext()
    g, h = t[k1 - 1], t[k1]
    head, tail = t[: k1 - 1], t[k1 + 1 :]
    key = (m.phi, g, h)
    record = ctx.node_values.get(key) or ctx.store(key, _pair_record(m.phi, g, h))
    n1, n3, thick_lengths, sides = record

    gh = g + h
    omega1, omega2 = m.omega1._eval, m.omega2._eval
    side1, side2, side3 = rows = [[0] * count for count, _ in sides]
    for terms, (_, pieces) in zip(rows, sides):
        for j, a, b, lam_j in pieces:
            term = lam_j * omega1(head + (gh[:a],), ctx)
            if term:
                terms[j] = term * omega2((gh[b:],) + tail, ctx)

    canceled = [[False] * len(terms) for terms in rows]
    canceled1, canceled2, canceled3 = canceled
    for j in range(min(n1, len(side1), len(side3))):
        if side1[j] == side3[j]:
            canceled1[j] = canceled3[j] = True
    for i in range(1, min(n3, len(side2), len(side3)) + 1):
        if not canceled3[-i] and side2[-i] == side3[-i]:
            canceled2[-i] = canceled3[-i] = True
    survivors = [
        (side_no, j + 1, value)
        for side_no, terms, flags in zip((1, 2, 3), rows, canceled)
        for j, value in enumerate(terms)
        if not flags[j]
    ]
    den = m.omega1.den * m.phi.den * m.omega2.den
    ledger = TriangleTermLedger(
        survivors, sum(map(sum, canceled)), sum(thick_lengths), thick_lengths, den
    )
    return sum(side1) + sum(side2) - sum(side3), ledger


def _three_sum_probe(payload, t: LettersTuple, out: Scan) -> None:
    m, primitive, r_bound, ctx = payload
    total, ledger = three_sum_residual(m, t, ctx)
    direct = primitive._eval(t, ctx)
    if total * primitive.den != direct * ledger.den:
        out.fail(
            "three-sum-equality",
            {
                "tuple": describe_tuple(t),
                "three_sum": str(Fraction(total, ledger.den)),
                "primitive": str(Fraction(direct, primitive.den)),
            },
        )
    survivors = len(ledger.surviving_terms)
    out.offer("survivors", survivors)
    out.offer("thick_bound", ledger.bound)
    if survivors > ledger.bound or ledger.bound > r_bound:
        failure = {"tuple": describe_tuple(t), "survivors": survivors, "bound": ledger.bound}
        out.fail("ledger-bound", {**failure, "three_r_hat": r_bound, "ledger": ledger.to_json()})


def _exact_stages(m: MasseyInstance) -> list[tuple]:
    """The seven exact stages of the ladder in report order, as rows
    ``(name, arity, sample key, lhs, rhs)``; a row whose rhs is None checks
    that lhs vanishes. The first four are the ``verify-primitive`` command."""
    delta_phi = coboundary(qm_cochain(m.phi))
    mu = massey_representative(m)
    arity = m.k1 + m.k2 + 1
    return [
        ("cocycle-omega1", m.k1 + 1, "cocycle", coboundary(m.omega1), None),
        ("cocycle-omega2", m.k2 + 1, "cocycle", coboundary(m.omega2), None),
        ("primitive-beta1", m.k1 + 2, "primitive", coboundary(beta1(m)), cup(m.omega1, delta_phi)),
        ("primitive-beta2", m.k2 + 2, "primitive", coboundary(beta2(m)), cup(delta_phi, m.omega2)),
        ("mu-simplification", arity, "mu_simplification", mu, mu_simplified(m)),
        ("mu-cocycle", arity + 1, "mu_cocycle", coboundary(mu), None),
        ("delta-p-equals-mu", arity, "delta_p", coboundary(bounded_primitive(m)), mu),
    ]


def _run_stages(rows: list[tuple], plan: ExperimentPlan, report: Report, tasks) -> None:
    for name, arity, key, lhs, rhs in rows:
        domain = report.build_tasks(tasks, arity, key)
        if rhs is None:
            report.add(vanishing_stage(name, lhs, domain, plan.jobs))
        else:
            report.add(identity_stage(name, lhs, rhs, domain, plan.jobs))


def verify_massey_triviality(m: MasseyInstance, plan: ExperimentPlan) -> Report:
    """Run the full verification ladder for one instance.

    Stages, in order: the seven exact stages of ``_exact_stages`` (the omega
    factors are cocycles on aligned tuples; the beta primitives satisfy
    their coboundary identities; the representative collapses to the eta
    form and is a cocycle; delta P equals the representative); the
    three-sum display reproduces P with the cancellation ledger inside the
    thick bound; sup |P| plateaus along the length ladder and stays under
    3 R-hat times the product of the measured norms.

    R-hat is measured before the report is created, so its scan counts in
    the report's total wall time but in no stage's.
    """
    jobs = plan.jobs
    r_hat = measure_r_hat(m.phi.spec, plan.pair_radius, plan.enumeration_cap, jobs)
    lambda_sup = m.phi.table.sup
    report = Report(command="massey")
    report.notes = {
        "r_hat": r_hat,
        "pair_radius": plan.pair_radius,
        "lambda_sup": str(lambda_sup),
        "k1": m.k1,
        "k2": m.k2,
        "mutation": m.mutation,
        "convention_dependent": m.convention_dependent,
    }
    tasks = task_lists(plan)
    _run_stages(_exact_stages(m), plan, report, tasks)

    primitive = bounded_primitive(m)
    r_bound = 3 * r_hat
    payload = (m, primitive, r_bound, EvalContext())
    domain = report.build_tasks(tasks, m.k1 + m.k2, "three_sum")
    result = scan(_three_sum_probe, payload, domain, jobs)
    max_survivors = result.best("survivors", 0)[0]
    stats = {"max_survivors": max_survivors, "max_thick_bound": result.best("thick_bound", 0)[0]}
    report.add(StageResult.from_scan("three-sum-equality", result, stats=stats))
    stats = {"max_survivors": max_survivors, "three_r_hat": r_bound}
    report.add(StageResult.from_scan("ledger-bound", result, stats=stats))

    norm1, _, _ = sup_scan(m.omega1, report.build_tasks(tasks, m.k1, "norms"), jobs)
    norm2, _, _ = sup_scan(m.omega2, report.build_tasks(tasks, m.k2, "norms"), jobs)
    sup_bound = Fraction(r_bound) * norm1 * lambda_sup * norm2
    ladder_stats: list[dict] = []
    sups: list[Fraction] = []
    for max_len in plan.max_len_ladder:
        rung_tasks = report.build_tasks(
            random_aligned_tuples,
            plan.rank,
            m.k1 + m.k2,
            plan.ladder_samples,
            max_len,
            f"{plan.seed}:ladder:{max_len}",
        )
        sup, argmax, checked = sup_scan(primitive, rung_tasks, jobs)
        sups.append(sup)
        ladder_stats.append(
            {"max_len": max_len, "sup": str(sup), "argmax": argmax, "checked": checked}
        )
    plateau_ok = all(s <= sups[0] for s in sups[1:])
    within = all(s <= sup_bound for s in sups)
    counterexample = None
    if not (plateau_ok and within):
        counterexample = {
            "ladder": [str(s) for s in sups],
            "bound": str(sup_bound),
        }
    report.add(
        StageResult(
            "sup-p-ladder",
            sum(r["checked"] for r in ladder_stats),
            counterexample,
            stats={
                "ladder": ladder_stats,
                "bound": str(sup_bound),
                "omega1_norm": str(norm1),
                "omega2_norm": str(norm2),
                "lambda_sup": str(lambda_sup),
                "r_hat": r_hat,
            },
        )
    )
    return report


def verify_primitives(m: MasseyInstance, plan: ExperimentPlan) -> Report:
    """Cocycle preconditions and the two beta identities only."""
    report = Report(command="verify-primitive")
    report.notes = {"k1": m.k1, "k2": m.k2, "mutation": m.mutation}
    _run_stages(_exact_stages(m)[:4], plan, report, task_lists(plan))
    return report
