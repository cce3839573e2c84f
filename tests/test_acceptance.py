"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package at full size and
prints a single verdict line; run with `pytest -s tests/test_acceptance.py`
to see the lines.  Budgets and tolerances are asserted, not aspirational.
"""

import dataclasses
import functools
import json
import random
import time
from fractions import Fraction

import numpy as np

from effectus import (
    INSTANCES,
    STAR,
    derive_assert,
    derive_instrument,
    side_effect,
)
from effectus.cli import main
from effectus.core import Arrow
from effectus.kleisli import DistChain, FiniteSet, SubDist, fuzzy, tagged_double
from effectus.harness import (
    CaseSpec,
    default_suite,
    run_exhaustive_adjunction,
    run_law,
    run_suite,
)
from effectus.registry import INSTANCES as REGISTRY
from effectus.ring import IdealRing, ZProductRing, canonical_moduli, idempotents, rings_up_to
from effectus.vn import MatrixAlgebra, VnChain, spectral_norm, superop_from_fn

SETS = INSTANCES["sets"]
DIST = INSTANCES["dist"]
RING = INSTANCES["ring"]
HILB = INSTANCES["hilb"]
VN = INSTANCES["vn"]

HALF = Fraction(1, 2)
ONE = Fraction(1)


def _verdict(label, ok, detail=""):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    assert ok, line


def _numpy_sqrt(b):
    # same contract as the package's op_sqrt (eigenvalues inside the rank
    # cutoff are flushed to zero), on numpy's independent eigensolver
    b = np.asarray(b, dtype=complex)
    if not b.size:
        return b
    w, v = np.linalg.eigh(b)
    vals = np.where(w > 1e-9, np.sqrt(np.clip(w, 0, None)), 0.0)
    return v @ np.diag(vals) @ v.conj().T


def _rand_hermitian(rng, X):
    blocks = []
    for n in X.block_dims:
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(n)] for _ in range(n)])
        blocks.append((m + m.conj().T) / 2)
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Closed-form reproduction of the assert and instrument maps.
# ---------------------------------------------------------------------------


def test_closed_form_reproduction():
    t0 = time.monotonic()
    problems = []

    # canned: three-point set with a two-point subset
    X = FiniteSet((1, 2, 3))
    P = SETS.pred(X, (1, 2))
    if SETS.table(SETS.assert_closed_form(X, P)) != {1: 1, 2: 2, 3: STAR}:
        problems.append("sets assert table")
    if SETS.table(SETS.instrument_closed_form(X, P)) != {
            1: (1, 1), 2: (1, 2), 3: (2, 3)}:
        problems.append("sets instrument table")

    rng = random.Random(2026)
    for _ in range(200):
        Xs = SETS.rand_object(rng, {"max_size": 5})
        Ps = SETS.rand_pred(rng, Xs, {})
        Ts = SETS.pred_table(Xs, Ps)
        instr = SETS.instrument_closed_form(Xs, Ps)
        want = {x: ((1, x) if x in Ts else (2, x)) for x in Xs}
        if SETS.table(instr) != want or instr.dst != tagged_double(Xs):
            problems.append(f"sets instrument {Xs}")
        if not SETS.maps_equal(derive_instrument(SETS, Xs, Ps), instr):
            problems.append(f"sets derived instrument {Xs}")
        asrt = SETS.assert_closed_form(Xs, Ps)
        if SETS.table(asrt) != {x: (x if x in Ts else STAR) for x in Xs}:
            problems.append(f"sets assert {Xs}")
        if not SETS.maps_equal(derive_assert(SETS, Xs, Ps), asrt):
            problems.append(f"sets derived assert {Xs}")

    # canned: the two-point fuzzy predicate, exact rationals
    Xd = FiniteSet(("x", "y"))
    pd = fuzzy(Xd, {"x": HALF, "y": ONE})
    instr = DIST.instrument_closed_form(Xd, pd)
    if DIST.table(instr)["x"] != SubDist((((1, "x"), HALF), ((2, "x"), HALF))):
        problems.append("dist canned instrument at x")
    if DIST.table(instr)["y"] != SubDist((((1, "y"), ONE),)):
        problems.append("dist canned instrument at y")

    for _ in range(200):
        Xr = DIST.rand_object(rng, {"max_size": 5})
        pr = DIST.rand_pred(rng, Xr, {"max_den": 12})
        instr = DIST.instrument_closed_form(Xr, pr)
        for x in Xr:
            v = DIST.pred_table(Xr, pr)[x]
            want = SubDist((((1, x), v), ((2, x), 1 - v)))
            if DIST.table(instr)[x] != want:
                problems.append(f"dist instrument at {x!r}")
        asrt = DIST.assert_closed_form(Xr, pr)
        for x in Xr:
            if DIST.table(asrt)[x] != SubDist(((x, DIST.pred_table(Xr, pr)[x]),)):
                problems.append(f"dist assert at {x!r}")
        if not DIST.maps_equal(derive_instrument(DIST, Xr, pr), instr):
            problems.append("dist derived instrument")

    # canned: Z6 with idempotent 3
    Z6 = ZProductRing((6,))
    e = (3,)
    if RING.table(RING.assert_closed_form(Z6, e))[(5,)] != (3,):
        problems.append("ring canned assert")
    if RING.table(RING.instrument_closed_form(Z6, e))[((1,), (5,))] != (5,):
        problems.append("ring canned instrument")

    for _ in range(200):
        R = RING.rand_object(rng, {"max_order": 24})
        er = RING.rand_pred(rng, R, {})
        ec = RING.ortho(R, er)
        instr = RING.table(RING.instrument_closed_form(R, er))
        for a in R.elements():
            for b in R.elements():
                if instr[(a, b)] != R.add(R.mul(er, a), R.mul(ec, b)):
                    problems.append(f"ring instrument {R} at {(a, b)}")
                    break
        asrt = RING.table(RING.assert_closed_form(R, er))
        if any(asrt[x] != R.mul(er, x) for x in R.elements()):
            problems.append(f"ring assert {R}")

    # canned: qubit effect diag(1, 1/2)
    M2 = MatrixAlgebra((2,))
    pq = (np.diag([1.0, 0.5]).astype(complex),)
    got = VN.apply(VN.assert_closed_form(M2, pq),
                   (np.ones((2, 2), dtype=complex),))[0]
    want = np.array([[1, 2 ** -0.5], [2 ** -0.5, 0.5]], dtype=complex)
    if np.max(np.abs(got - want)) > 1e-9:
        problems.append("vn canned assert")

    worst = 0.0
    for _ in range(200):
        Xv = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        pv = VN.rand_pred(rng, Xv)
        qv = VN.ortho(Xv, pv)
        a = _rand_hermitian(rng, Xv)
        b = _rand_hermitian(rng, Xv)
        instr = VN.instrument_closed_form(Xv, pv)
        got = VN.apply(instr, a + b)
        for j, _ in enumerate(Xv.block_dims):
            rp, rq = _numpy_sqrt(pv[j]), _numpy_sqrt(qv[j])
            formula = rp @ a[j] @ rp + rq @ b[j] @ rq
            diff = float(np.max(np.abs(got[j] - formula))) if formula.size else 0.0
            worst = max(worst, diff)
        worst = max(worst, VN.map_residual(derive_instrument(VN, Xv, pv), instr))
    if worst > 1e-9:
        problems.append(f"vn instrument residual {worst:.2e}")

    elapsed = time.monotonic() - t0
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    _verdict("closed-form assert/instrument reproduction", not problems,
             "; ".join(problems) or f"4 instances, canned + 200 seeded each, "
             f"vn residual {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Adjunction round-trips, exhaustive and seeded, plus uniqueness.
# ---------------------------------------------------------------------------

# nondet's cap admits its largest triples (|X| = |Y| = 4 with p = {} or
# p = X: 31**4 candidate maps each), so no sweep skips a triple.
EXHAUSTIVE_BOUNDS = {
    "sets": {"max_size": 4},
    "nondet": {"max_size": 4, "enumeration_cap": 31 ** 4},
    "ring": {"max_order": 12},
    "fp": {"fields": (2, 3), "max_dim": 3},
}


@functools.lru_cache(maxsize=None)
def _exhaustive_reports():
    out = {}
    for name, bounds in EXHAUSTIVE_BOUNDS.items():
        for which in ("quotient", "comprehension"):
            out[name, which] = run_exhaustive_adjunction(
                INSTANCES[name], which, bounds)
    return out


@functools.lru_cache(maxsize=None)
def _seeded_adjunction_reports():
    specs = []
    for name, cases in (("dist", 500), ("hilb", 200), ("vn", 200)):
        for law in ("quotient-adjunction", "comprehension-adjunction"):
            specs.append(CaseSpec(name, law, 11, cases))
    return run_suite(specs)


# The triples each exhaustive sweep runs at the acceptance bounds, the
# same in both directions; an enumerator that yields fewer predicates or
# objects shows here.
EXHAUSTIVE_CASES = {"sets": 210, "nondet": 210, "ring": 1617, "fp": 244}


def test_adjunction_round_trips():
    t0 = time.monotonic()
    problems = []
    for (name, which), report in _exhaustive_reports().items():
        if report.failures or report.cases == 0:
            problems.append(f"{name} {which}: {report.failures} failures "
                            f"in {report.cases} cases")
        if report.cases != EXHAUSTIVE_CASES[name]:
            problems.append(f"{name} {which}: {report.cases} cases, "
                            f"expected {EXHAUSTIVE_CASES[name]}")
        if report.skipped:
            problems.append(f"{name} {which}: skipped {report.skipped}")
    seeded = _seeded_adjunction_reports()
    for rep in seeded["reports"]:
        if rep["failures"]:
            problems.append(f"{rep['instance']} {rep['law']}: "
                            f"{rep['failures']} failures")
        if rep["instance"] in ("vn", "hilb") and rep["max_residual"] > 1e-9:
            problems.append(f"{rep['instance']} residual "
                            f"{rep['max_residual']:.2e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    total = sum(r.cases for r in _exhaustive_reports().values())
    skipped = sum(len(r.skipped) for r in _exhaustive_reports().values())
    _verdict("adjunction round-trips both directions", not problems,
             "; ".join(problems) or f"{total} exhaustive triples "
             f"({skipped} over the enumeration cap) + 500 dist / 200 hilb / "
             f"200 vn seeded per direction, {elapsed:.1f}s")


def test_mediating_map_uniqueness():
    problems = []
    # enumerable instances: the sweeps fail on any second solution, so
    # zero failures over a nonempty sweep is a full enumeration proof
    for (name, which), report in _exhaustive_reports().items():
        if report.failures or report.cases == 0:
            problems.append(f"{name} {which} enumeration")

    # every instance: `cancels`, which `effectus check` decides uniqueness
    # by, finds the quotient unit epi and the comprehension counit mono;
    # cross-checked by the defining equation, and a random map out of the
    # quotient coming back from its composite with the unit, so no second
    # map shares that composite
    for name, inst in INSTANCES.items():
        rng = random.Random(15)
        tol = float(inst.eq_tol)
        for i in range(200):
            X = inst.rand_object(rng, {})
            p = inst.rand_pred(rng, X, {})
            Y = inst.rand_object(rng, {}, like=X)
            q = inst.quotient(X, p)
            c = inst.comprehension(X, p)
            if not (inst.cancels(q.unit, True) and inst.cancels(c.counit, False)):
                problems.append(f"{name} case {i}: unit not epi or counit not mono")
                break
            f = inst.rand_hom(rng, X, p, q, Y, {})
            if inst.map_residual(inst.compose(q.transpose(f), q.unit), f) > tol:
                problems.append(f"{name} case {i}: defining equation")
                break
            g = inst.rand_arrow(rng, q.obj, Y, {})
            if inst.map_residual(q.transpose(inst.compose(g, q.unit)), g) > tol:
                problems.append(f"{name} case {i}: map not recovered from its composite")
                break
    _verdict("mediating-map uniqueness", not problems,
             "; ".join(problems) or "full enumeration (sets, nondet, fp, ring) "
             f"+ cancels on 200 units and counits each of {' / '.join(INSTANCES)}, "
             "cross-checked by 200 round trips each from random maps")


# ---------------------------------------------------------------------------
# Coincidence of the two carriers.
# ---------------------------------------------------------------------------


def test_coincidence_of_carriers():
    problems = []
    checked = 0
    for name in ("sets", "nondet", "ring"):
        inst = INSTANCES[name]
        bounds = {"max_size": 3, "max_order": 12}
        for X in inst.iter_objects(bounds):
            for p in inst.iter_preds(X):
                q = inst.quotient(X, inst.ortho(X, p))
                c = inst.comprehension(X, inst.ceil(X, p))
                checked += 1
                if not inst.objects_equal(q.obj, c.obj):
                    problems.append(f"{name}: carriers differ at {X}, {p}")
    for name in ("dist", "hilb", "vn"):
        report = run_law(INSTANCES[name],
                         CaseSpec(name, "coincidence", 17, 200))
        checked += report.cases
        if report.failures:
            problems.append(f"{name}: {report.failures} of {report.cases}")
    _verdict("quotient/comprehension carrier coincidence", not problems,
             "; ".join(problems) or f"{checked} cases, 100% agree")


# ---------------------------------------------------------------------------
# Sharpness laws.
# ---------------------------------------------------------------------------


def test_sharpness_laws():
    problems = []
    for name in ("sets", "nondet", "dist", "hilb", "ring", "vn"):
        report = run_law(INSTANCES[name], CaseSpec(name, "sharpness", 19, 200))
        if report.failures:
            problems.append(f"{name}: {report.failures} of {report.cases}")

    # the floor/ceil De Morgan dual, exactly in dist and within 1e-9 in vn
    rng = random.Random(23)
    for _ in range(200):
        X = DIST.rand_object(rng, {})
        p = DIST.rand_pred(rng, X, {})
        if not DIST.preds_equal(X, DIST.floor(X, DIST.ortho(X, p)),
                                DIST.ortho(X, DIST.ceil(X, p))):
            problems.append("dist floor/ceil duality")
            break
    for _ in range(200):
        X = VN.rand_object(rng, {})
        p = VN.rand_pred(rng, X)
        res = VN.pred_residual(X, VN.floor(X, VN.ortho(X, p)),
                               VN.ortho(X, VN.ceil(X, p)))
        if res > 1e-9:
            problems.append(f"vn floor/ceil duality residual {res:.2e}")
            break

    # canned: an unsharp predicate whose assert is not idempotent
    X = FiniteSet(("x", "y"))
    p = fuzzy(X, {"x": HALF, "y": ONE})
    asrt = DIST.assert_closed_form(X, p)
    if DIST.maps_equal(DIST.compose(asrt, asrt), asrt):
        problems.append("unsharp dist assert reported idempotent")
    sharp = fuzzy(X, {"x": ONE, "y": Fraction(0)})
    asrt = DIST.assert_closed_form(X, sharp)
    if not DIST.maps_equal(DIST.compose(asrt, asrt), asrt):
        problems.append("sharp dist assert not idempotent")

    _verdict("sharpness laws", not problems,
             "; ".join(problems) or "200 cases x 6 instances + "
             "explicit floor/ceil duality loops")


# ---------------------------------------------------------------------------
# Operator-algebra sanity.
# ---------------------------------------------------------------------------


def test_operator_algebra_sanity():
    problems = []
    report = run_law(VN, CaseSpec("vn", "cp-sanity", 29, 200))
    if report.failures:
        problems.append(f"cp-sanity law: {report.failures} of {report.cases}")

    # the transpose map is the classic non-CP witness
    M2 = MatrixAlgebra((2,))
    t = VN.arrow(M2, M2, superop_from_fn(M2, M2, lambda a: (a[0].T,)))
    ok, info = VN.cp_check(t)
    if ok:
        problems.append("transpose map accepted as CP")
    elif abs(info["min_eig"] + 1.0) > 1e-9:
        problems.append(f"transpose witness eigenvalue {info['min_eig']}")

    rng = random.Random(31)
    worst_unital = 0.0
    for _ in range(200):
        X = VN.rand_object(rng, {})
        p = VN.rand_pred(rng, X)
        instr = VN.instrument_closed_form(X, p)
        got = VN.apply(instr, instr.dst.one())
        diff = max((float(np.max(np.abs(g - np.eye(n))))
                    for g, n in zip(got, X.block_dims) if n), default=0.0)
        worst_unital = max(worst_unital, diff)
    if worst_unital > 1e-9:
        problems.append(f"instrument unitality residual {worst_unital:.2e}")

    worst_cs = 0.0
    for _ in range(200):
        X = VN.rand_object(rng, {})
        Y = VN.rand_object(rng, {})
        f = VN.rand_arrow(rng, X, Y)
        c = VN.rand_pred(rng, Y)
        d = VN.rand_pred(rng, Y)
        lhs = spectral_norm(VN.apply(
            f, tuple(cb @ db for cb, db in zip(c, d)))) ** 2
        rhs = (spectral_norm(VN.apply(f, tuple(cb @ cb for cb in c)))
               * spectral_norm(VN.apply(f, tuple(db @ db for db in d))))
        worst_cs = max(worst_cs, lhs - rhs)
    if worst_cs > 1e-9:
        problems.append(f"Cauchy-Schwarz residual {worst_cs:.2e}")

    _verdict("operator-algebra sanity", not problems,
             "; ".join(problems) or f"200-case CP law + transpose witness "
             f"-1, unitality {worst_unital:.1e}, "
             f"Cauchy-Schwarz slack {max(0.0, worst_cs):.1e}")


# ---------------------------------------------------------------------------
# Probabilistic measurement leaves no trace.
# ---------------------------------------------------------------------------


def test_probabilistic_measurement_is_side_effect_free():
    rng = random.Random(37)
    problems = []
    for i in range(500):
        X = DIST.rand_object(rng, {"max_size": 5})
        p = DIST.rand_pred(rng, X, {"max_den": 16})
        merged, free = side_effect(DIST, derive_instrument(DIST, X, p))
        if not free:
            problems.append(f"case {i}: reported side effects")
            break
        if not DIST.maps_equal(merged, DIST.identity(X)):
            problems.append(f"case {i}: merged instrument is not identity")
            break
    _verdict("probabilistic measurement side-effect freeness", not problems,
             "; ".join(problems) or "500 predicates, exact rational equality")


# ---------------------------------------------------------------------------
# Ring decomposition by idempotents.
# ---------------------------------------------------------------------------


def test_ring_decomposition():
    t0 = time.monotonic()
    problems = []

    Z6 = ZProductRing((6,))
    e = (3,)
    dec = RING.decompose(Z6, e)
    split, merge = RING.table(dec.split), RING.table(dec.merge)
    for x in Z6.elements():
        a, b = split[x]
        if merge[(a, b)] != x:
            problems.append(f"merge(split({x})) != {x}")
    for ab in dec.pair.elements():
        x = merge[ab]
        if split[x] != ab:
            problems.append(f"split(merge({ab})) != {ab}")
    halves = (canonical_moduli(IdealRing(Z6, e)),
              canonical_moduli(IdealRing(Z6, RING.ortho(Z6, e))))
    if halves != ((2,), (3,)):
        problems.append(f"corner moduli {halves}")

    rings = idem_count = 0
    for R in rings_up_to(36):
        rings += 1
        for e in idempotents(R):
            idem_count += 1
            dec = RING.decompose(R, e)
            split, merge = RING.table(dec.split), RING.table(dec.merge)
            two_sided = (
                all(merge[split[x]] == x
                    for x in R.elements())
                and all(split[merge[ab]] == ab
                        for ab in dec.pair.elements()))
            if not two_sided:
                problems.append(f"{R} idempotent {e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 5:
        problems.append(f"took {elapsed:.1f}s, budget 5s")
    _verdict("ring decomposition by idempotents", not problems,
             "; ".join(problems) or f"{idem_count} idempotents over "
             f"{rings} rings, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# CLI contract: green suite, and mutations flip it red.
# ---------------------------------------------------------------------------


# Each corruption overrides a construction and damages the transpose it
# carries: the arrow it wraps its data into, or for vn the data itself.


def _halved(g):
    data = {x: SubDist(tuple((a, w / 2) for a, w in d.weights))
            for x, d in DIST.table(g).items()}
    return DIST.arrow(g.src, g.dst, data)


def _aborting(g):
    return SETS.arrow(g.src, g.dst, {x: STAR for x in g.src})


def _skewed(data):
    data = np.array(data, dtype=complex)
    if data.size:
        data[0, 0] += 0.05
    return data


class _HalvedDistTranspose(DistChain):
    def quotient(self, X, p):
        q = super().quotient(X, p)
        return dataclasses.replace(
            q, transpose_data=lambda d, Y: _halved(q.transpose(Arrow(X, Y, d))).data)


class _AbortingSetsTranspose(type(INSTANCES["sets"])):
    def quotient(self, X, p):
        q = super().quotient(X, p)
        return dataclasses.replace(
            q, transpose_data=lambda d, Y: _aborting(q.transpose(Arrow(X, Y, d))).data)


class _SkewVnTranspose(VnChain):
    def comprehension(self, X, p):
        c = super().comprehension(X, p)
        return dataclasses.replace(
            c, transpose_data=lambda d, Y: _skewed(c.transpose_data(d, Y)))


def test_cli_contract(tmp_path, monkeypatch, capsys):
    t0 = time.monotonic()
    rc = main(["check"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    problems = []
    if rc != 0:
        problems.append(f"default suite exit {rc}")
    if elapsed >= 120:
        problems.append(f"default suite took {elapsed:.1f}s, budget 120s")

    corruptions = [("dist", _HalvedDistTranspose()),
                   ("sets", _AbortingSetsTranspose()),
                   ("vn", _SkewVnTranspose())]
    for name, bad in corruptions:
        monkeypatch.setitem(REGISTRY, name, bad)
        out = tmp_path / f"{name}.json"
        rc_bad = main(["check", "--instance", name,
                       "--format", "json", "-o", str(out)])
        capsys.readouterr()
        if rc_bad != 1:
            problems.append(f"corrupted {name} transpose: exit {rc_bad}")
            continue
        result = json.loads(out.read_text())
        failing = [r for r in result["reports"] if r["failures"]]
        if not failing or not failing[0]["witnesses"]:
            problems.append(f"corrupted {name}: no witness recorded")
            continue
        # the witness replays: the CaseSpec that produced the failing
        # report reproduces it byte for byte
        rep = failing[0]
        spec = next(s for s in default_suite(instance=name)
                    if (s.law, s.seed) == (rep["law"], rep["seed"]))
        replay = run_law(bad, spec).to_jsonable()
        if replay != rep:
            problems.append(f"corrupted {name}: witness did not replay")
        monkeypatch.undo()

    rc_again = main(["check", "--instance", "dist", "--cases", "10"])
    capsys.readouterr()
    if rc_again != 0:
        problems.append("registry not restored after mutation checks")

    _verdict("command-line check contract", not problems,
             "; ".join(problems) or f"default suite green in {elapsed:.1f}s; "
             "3 corrupted transposes flip exit to 1 with replayable witnesses")
