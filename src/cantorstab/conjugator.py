"""Stagewise construction and verification of conjugating limit maps.

Given two points x, y, the builder produces a finite certificate: a nested
chain of cylinders U_i around x and V_i around y together with group
elements g_i such that g_i maps U_i onto V_i exactly, and consecutive g_i
agree outside the previous U.  A certificate holds only each stage's depth
d_i and correction h_i; ``next_stage`` derives the rest (U_i is the depth-d_i
prefix of x, g_i = h_i g_{i-1} and V_i = g_i(U_i)) for the builder and for
the reader alike.  Such a chain pins down a limit homeomorphism
f with f(x) = y on everything except arbitrarily small cylinders around x,
and conjugation by the g_i carries elements fixing a neighbourhood of x
pointwise to elements fixing a neighbourhood of y pointwise.

Each stage multiplies in one rigid-stabiliser element of the current V
(found by transporter search), so the correction never disturbs what
earlier stages certified.  The per-stage search aims ``transporter_margin``
levels deeper than the stage depth: families whose rigid-stabiliser orbits
are confined one level inside their cylinder (branch-type) need the image
point parked strictly inside the next stage's reachable half.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

from .space import (
    Alphabet,
    BoundaryPoint,
    Cylinder,
    DepthSchedule,
    Word,
    complement,
    contains_point,
)
from .elements import GroupElement, NoCycleWithinBound, Tri, UnresolvedWord
from .engine import (
    DEFAULT_ID_BUDGET,
    GermKind,
    GroupFamily,
    fixes_cylinder_pointwise,
    in_neighbourhood_stabiliser,
    in_rigid_stabiliser,
    stabilises,
)
from .search import (
    EmptyRist,
    SearchBudget,
    SearchExhausted,
    minimality_witness,
    rist_generators,
    transporter,
)


class NotInNeighbourhoodStabiliser(ValueError):
    """Conjugation requires a pointwise-fixed cylinder around x within the
    certificate's depth."""


@dataclass(frozen=True)
class BuildBudgets:
    transporter: SearchBudget = SearchBudget(max_word_len=18, max_states=20000)
    rist: SearchBudget = SearchBudget(max_word_len=8, max_states=50000)
    id_budget: int = DEFAULT_ID_BUDGET

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "BuildBudgets":
        searches = {k: SearchBudget(**obj[k]) for k in ("transporter", "rist")}
        return cls(**{**obj, **searches})


@dataclass(frozen=True)
class Stage:
    index: int
    depth: int
    u: Cylinder
    v: Cylinder
    h: GroupElement
    g: GroupElement


def next_stage(prev: Stage | None, x: BoundaryPoint, d: int, h: GroupElement) -> Stage:
    """The stage after ``prev`` (stage 0 when ``prev`` is None) with depth d
    and correction h: U = [x_1..x_d], g = h g_prev and V = g(U).

    Raises UnresolvedWord when g does not resolve U.
    """
    g = h if prev is None else h.compose(prev.g)
    u = x.prefix(d)
    v = Word(g.act_letters(u.letters), x.alphabet)
    return Stage(0 if prev is None else prev.index + 1, d, Cylinder(u), Cylinder(v), h, g)


@dataclass(frozen=True)
class ConjugatorCertificate:
    family_name: str
    alphabet: Alphabet
    x: BoundaryPoint
    y: BoundaryPoint
    stages: tuple[Stage, ...]  # stage 0 is (whole space, identity)
    budgets: BuildBudgets

    @classmethod
    def from_corrections(cls, family_name, alphabet, x, y, corrections, budgets) -> "ConjugatorCertificate":
        """The certificate whose stages have the depths and corrections
        ``[(d_0, h_0), (d_1, h_1), ...]``, derived through ``next_stage``."""
        stages: list[Stage] = []
        for d, h in corrections:
            stages.append(next_stage(stages[-1] if stages else None, x, d, h))
        return cls(family_name, alphabet, x, y, tuple(stages), budgets)

    @property
    def last_depth(self) -> int:
        return self.stages[-1].depth

    def stage_for_witness_depth(self, n: int) -> Stage:
        """Least stage whose depth is >= n."""
        for stage in self.stages:
            if stage.depth >= n:
                return stage
        raise NotInNeighbourhoodStabiliser(
            f"witness depth {n} exceeds certificate depth {self.last_depth}"
        )


class ConjugatorBuildError(RuntimeError):
    """Stage construction failed; carries the partial certificate."""

    def __init__(self, message: str, partial: ConjugatorCertificate, stage: int):
        super().__init__(message)
        self.partial = partial
        self.stage = stage


def build_conjugator(
    family: GroupFamily,
    x: BoundaryPoint,
    y: BoundaryPoint,
    schedule: DepthSchedule,
    budgets: BuildBudgets = BuildBudgets(),
) -> ConjugatorCertificate:
    """Run the stagewise induction along the depth schedule.

    Stage i finds h_i in rist(V_{i-1}) moving the current image of x onto
    the prefix of y at depth ``d_i + margin`` and takes the next stage with
    that correction.  A family failing the depth-1 minimality witness gets
    a warning first.
    """
    family.alphabet.check(x.alphabet)
    family.alphabet.check(y.alphabet)
    if not minimality_witness(list(family.generators), 1).ok:
        warnings.warn(
            f"{family.name}: depth-1 minimality witness failed; "
            "conjugator stages may exhaust their searches"
        )
    margin = family.transporter_margin
    identity = family.identity
    stages = [next_stage(None, x, 0, identity)]

    def fail(message, stage_index):
        partial = ConjugatorCertificate(family.name, family.alphabet, x, y, tuple(stages), budgets)
        raise ConjugatorBuildError(message, partial, stage_index)

    for i, d in enumerate(schedule, start=1):
        prev = stages[-1]
        try:
            current = prev.g.act_point(x)
        except NoCycleWithinBound as exc:
            fail(f"stage {i}: {exc}", i)
        target = y.prefix(d + margin)
        if current.prefix(len(target)) == target:
            h = identity
        else:
            try:
                gens = rist_generators(family, prev.v, budgets.rist, budgets.id_budget)
            except EmptyRist as exc:
                fail(str(exc), i)
            try:
                h = transporter(gens, current, target, identity, budgets.transporter)
            except SearchExhausted as exc:
                fail(f"stage {i}: {exc}", i)
        try:
            stage = next_stage(prev, x, d, h)
        except UnresolvedWord:
            fail(f"stage {i}: element resolution exceeds depth {d}; increase the depth step", i)
        if not contains_point(stage.v, y):
            fail(f"stage {i}: image cylinder {stage.v} does not contain y", i)
        stages.append(stage)
    return ConjugatorCertificate(family.name, family.alphabet, x, y, tuple(stages), budgets)


@dataclass(frozen=True)
class CheckResult:
    stage: int
    condition: str
    status: str  # PASS / FAIL / UNKNOWN
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "PASS" for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status != "PASS"]


def _tri_status(t: Tri) -> str:
    return {Tri.YES: "PASS", Tri.NO: "FAIL", Tri.UNKNOWN: "UNKNOWN"}[t]


def verify_certificate(
    cert: ConjugatorCertificate, id_budget: int = DEFAULT_ID_BUDGET
) -> VerificationReport:
    """Re-check every stage condition that ``next_stage`` does not make true
    by construction.

    Stage 0 must be the identity on the whole space.  Per stage: the depths
    increase and V_i is at least as deep, y lies in V_i, and the correction
    h_i lies in rist(V_{i-1}).  That g_i(x) matches y to depth d_i follows:
    V_i = g_i(U_i) holds g_i(x) and y, and |V_i| >= d_i.  That g_i agrees
    with g_{i-1} outside U_{i-1} follows too: g_{i-1} maps U_{i-1} onto
    V_{i-1}, so g_{i-1}^-1 g_i = g_{i-1}^-1 h_i g_{i-1} lies in
    rist(U_{i-1}).  That the V chain is nested follows from the same two
    rows: U_i lies in U_{i-1}, so g_{i-1}(U_i) lies in V_{i-1}, which h_i
    maps onto itself because it fixes the complement pointwise; hence
    V_i = h_i(g_{i-1}(U_i)) lies in V_{i-1}.
    """
    results = []
    out = results.append
    stage0 = cert.stages[0]
    base = stage0.g.is_identity(id_budget) if stage0.depth == 0 else Tri.NO
    out(CheckResult(0, "base", _tri_status(base), "stage 0 must be the identity on the whole space"))
    for prev, stage in zip(cert.stages, cert.stages[1:]):
        i = stage.index
        depth_ok = stage.depth > prev.depth and stage.v.depth >= stage.depth
        out(CheckResult(i, "depth", "PASS" if depth_ok else "FAIL",
                        f"d_i={stage.depth}, |U|={stage.u.depth}, |V|={stage.v.depth}"))
        out(CheckResult(i, "y-in-V", "PASS" if contains_point(stage.v, cert.y) else "FAIL"))
        out(CheckResult(i, "rist", _tri_status(in_rigid_stabiliser(stage.h, prev.v, id_budget)),
                        f"h_{i} against {prev.v}"))
    return VerificationReport(tuple(results))


@dataclass(frozen=True)
class LimitValue:
    """Image of a point under the limit map, to certified precision.

    ``exact`` images carry the stage that froze them; prefix-only values
    arise for points inside the deepest U (the limit is only pinned to the
    deepest V), and for x itself, where the limit point y is known but only
    its built prefix is certified.
    """

    exact: bool
    point: BoundaryPoint | None = None
    prefix: Word | None = None
    limit_point: BoundaryPoint | None = None
    stage_used: int | None = None


def _walk_limit(cert: ConjugatorCertificate, z: BoundaryPoint, inverse: bool) -> LimitValue:
    """Shared walk of the limit map (``inverse`` False) and of its inverse,
    which exchanges x with y and U with V and inverts the stage elements."""
    source, target = (cert.y, cert.x) if inverse else (cert.x, cert.y)
    if z == source:
        return LimitValue(
            exact=False,
            prefix=target.prefix(cert.last_depth),
            limit_point=target,
        )
    for stage in cert.stages[1:]:
        if not contains_point(stage.v if inverse else stage.u, z):
            g = stage.g.inverse() if inverse else stage.g
            return LimitValue(exact=True, point=g.act_point(z), stage_used=stage.index)
    last = cert.stages[-1]
    return LimitValue(exact=False, prefix=(last.u if inverse else last.v).prefix, stage_used=last.index)


def eval_limit(cert: ConjugatorCertificate, z: BoundaryPoint) -> LimitValue:
    """Value of the limit map at z: exact once z leaves some U_N."""
    return _walk_limit(cert, z, inverse=False)


def eval_limit_inverse(cert: ConjugatorCertificate, z: BoundaryPoint) -> LimitValue:
    """Value of the inverse limit map at z: exact once z leaves some V_N."""
    return _walk_limit(cert, z, inverse=True)


@dataclass(frozen=True)
class ConjugationResult:
    conjugate: GroupElement
    stage_index: int
    witness_depth: int
    image_check: Tri  # conjugate fixes V_N pointwise


def conjugate_element(
    cert: ConjugatorCertificate,
    g: GroupElement,
    id_budget: int = DEFAULT_ID_BUDGET,
) -> ConjugationResult:
    """Conjugate an element fixing a cylinder around x pointwise through the
    certificate: c = g_N g g_N^{-1} for the least stage N covering the
    witness depth.  The result is checked to fix V_N pointwise."""
    verdict = in_neighbourhood_stabiliser(g, cert.x, id_budget)
    if verdict.kind is not GermKind.TRIVIAL:
        raise NotInNeighbourhoodStabiliser(
            f"element has verdict {verdict} at x={cert.x}"
        )
    stage = cert.stage_for_witness_depth(verdict.depth)
    conjugate = stage.g.compose(g).compose(stage.g.inverse())
    check = fixes_cylinder_pointwise(conjugate, stage.v.prefix.letters, id_budget)
    return ConjugationResult(conjugate, stage.index, verdict.depth, check)


RIST_SAMPLE_MAX_DEPTH = 6


def rist_samples(family: GroupFamily, cert: ConjugatorCertificate, count: int) -> list:
    """Up to ``count`` rigid-stabiliser generators of cylinders disjoint
    from U_1, breadth-first below the siblings of U_1's prefixes and no
    deeper than ``RIST_SAMPLE_MAX_DEPTH``, so a family with trivial rigid
    stabilisers yields an empty list rather than an endless search."""
    if len(cert.stages) < 2:
        return []
    alphabet = family.alphabet
    stems = complement(cert.stages[1].u)
    samples: list = []
    while stems:
        for stem in stems:
            try:
                samples.extend(rist_generators(family, Cylinder(Word(stem, alphabet))))
            except EmptyRist:
                pass
            if len(samples) >= count:
                return samples[:count]
        stems = [s + (a,) for s in stems if len(s) < RIST_SAMPLE_MAX_DEPTH for a in alphabet.letters()]
    return samples


@dataclass(frozen=True)
class SuiteEntry:
    label: str
    status: str  # PASS / FAIL / UNKNOWN / SKIPPED
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple[SuiteEntry, ...]

    def counts(self) -> dict:
        out = {"PASS": 0, "FAIL": 0, "UNKNOWN": 0, "SKIPPED": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def ok(self) -> bool:
        counts = self.counts()
        return counts["FAIL"] == 0 and counts["UNKNOWN"] == 0


def conjugation_suite(
    cert: ConjugatorCertificate,
    samples,
    id_budget: int = DEFAULT_ID_BUDGET,
) -> SuiteReport:
    """Push samples through the certificate and back.

    For each sample in the neighbourhood stabiliser of x: conjugate, check
    the image fixes V_N pointwise, then conjugate back and require the
    round trip to cancel exactly (identity oracle on the quotient, doubled
    budget).  Samples failing the precondition are SKIPPED, not failed.
    """
    entries = []
    for idx, g in enumerate(samples):
        label = f"sample-{idx}"
        if stabilises(g, cert.x) is not Tri.YES:
            entries.append(SuiteEntry(label, "SKIPPED", "does not stabilise x"))
            continue
        try:
            result = conjugate_element(cert, g, id_budget)
        except NotInNeighbourhoodStabiliser as exc:
            entries.append(SuiteEntry(label, "SKIPPED", str(exc)))
            continue
        if result.image_check is not Tri.YES:
            entries.append(
                SuiteEntry(label, _tri_status(result.image_check), "conjugate does not fix V_N pointwise")
            )
            continue
        stage = cert.stages[result.stage_index]
        back = stage.g.inverse().compose(result.conjugate).compose(stage.g)
        roundtrip = back.compose(g.inverse()).is_identity(2 * id_budget)
        if roundtrip is Tri.YES:
            entries.append(SuiteEntry(label, "PASS", f"stage {result.stage_index}"))
        elif roundtrip is Tri.NO:
            entries.append(SuiteEntry(label, "FAIL", "round trip does not cancel"))
        else:
            entries.append(SuiteEntry(label, "UNKNOWN", "round trip undecided"))
    return SuiteReport(tuple(entries))
