"""Law-checking engine: report schema, determinism, law coverage,
mutation detection, and the default suite's composition."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from effectus import INSTANCES, STAR
from effectus.core import Arrow
from effectus.kleisli import DistChain, SetsChain, SubDist
from effectus.harness import (
    DEFAULT_SEED,
    LAW_CASES,
    LAW_ORDER,
    LAW_STATEMENTS,
    MAX_WITNESSES,
    CaseSpec,
    LawReport,
    applicable_laws,
    default_suite,
    gen_case,
    run_law,
    run_suite,
)
from effectus.ring import RingChain
from effectus.vn import MatrixAlgebra, VnChain

REPORT_KEYS = {"instance", "law", "cases", "failures", "witnesses",
               "max_residual", "seed"}

# keep sampled objects small so this file stays fast
FAST = {"max_size": 3, "max_den": 6, "max_dim": 2, "max_order": 8,
        "max_blocks": 1, "max_block_dim": 2, "unique_samples": 4}


def _spec(instance, law, seed=DEFAULT_SEED, cases=8, bounds=None):
    return CaseSpec(instance, law, seed, cases, dict(FAST, **(bounds or {})))


# ---------------------------------------------------------------------------
# Report shape and bookkeeping.
# ---------------------------------------------------------------------------


def test_report_jsonable_schema():
    report = run_law(INSTANCES["sets"], _spec("sets", "kleisli-laws"))
    data = report.to_jsonable()
    assert set(data) == REPORT_KEYS
    assert data["instance"] == "sets"
    assert data["law"] == "kleisli-laws"
    assert data["cases"] == 8
    assert data["failures"] == 0
    assert data["witnesses"] == []
    assert isinstance(data["max_residual"], float)
    assert data["seed"] == DEFAULT_SEED
    json.dumps(data)  # must be plain JSON types throughout


def test_no_failures_means_no_witnesses():
    for name, inst in INSTANCES.items():
        for law in applicable_laws(inst):
            report = run_law(inst, _spec(name, law, cases=5))
            if report.failures == 0:
                assert report.witnesses == [], (name, law)


def test_witness_recording_is_capped():
    report = LawReport("sets", "kleisli-laws", 0)
    for i in range(10):
        report.record(1.0, False, {"case": i})
    assert report.failures == 10
    assert len(report.witnesses) == MAX_WITNESSES


def test_law_statements_cover_every_law():
    assert set(LAW_STATEMENTS) == set(LAW_ORDER) == set(LAW_CASES)
    for text in LAW_STATEMENTS.values():
        assert isinstance(text, str) and len(text) > 20


def test_applicable_laws_per_instance():
    base = ["kleisli-laws", "subst-functor", "truth-falsum",
            "quotient-adjunction", "comprehension-adjunction"]
    ortho = ["factorization", "coincidence", "sharpness"]
    assert applicable_laws(INSTANCES["sets"]) == base + ortho + ["instrument"]
    assert applicable_laws(INSTANCES["nondet"]) == base + ortho + ["instrument"]
    assert applicable_laws(INSTANCES["dist"]) == base + ortho + ["instrument"]
    assert applicable_laws(INSTANCES["fp"]) == base
    assert applicable_laws(INSTANCES["hilb"]) == base + ortho
    assert applicable_laws(INSTANCES["ring"]) == (
        base + ortho + ["instrument", "ring-decompose"])
    assert applicable_laws(INSTANCES["vn"]) == (
        base + ortho + ["instrument", "cp-sanity"])


class _RenamedVn(VnChain):
    name = "vn-renamed"


class _RenamedRing(RingChain):
    name = "ring-renamed"


def test_instance_declares_its_laws_not_its_name():
    assert applicable_laws(_RenamedVn()) == applicable_laws(INSTANCES["vn"])
    assert applicable_laws(_RenamedRing()) == applicable_laws(INSTANCES["ring"])


def test_renamed_vn_keeps_side_effect_prediction():
    inst = _RenamedVn()
    X = MatrixAlgebra((2,))
    assert inst.predicts_side_effect_free(X, (0.3 * np.eye(2),), 1e-9)
    assert not inst.predicts_side_effect_free(X, (np.diag([0.8, 0.3]),), 1e-9)
    report = run_law(inst, _spec("vn-renamed", "instrument", cases=6))
    assert report.cases == 6 and report.failures == 0


# ---------------------------------------------------------------------------
# Determinism.
# ---------------------------------------------------------------------------


def test_run_suite_is_byte_deterministic():
    specs = [_spec("dist", "quotient-adjunction", seed=5, cases=6),
             _spec("sets", "truth-falsum", seed=2, cases=6),
             _spec("vn", "cp-sanity", seed=9, cases=4)]
    first = json.dumps(run_suite(specs), sort_keys=True)
    second = json.dumps(run_suite(specs), sort_keys=True)
    assert first == second


def test_run_suite_orders_reports():
    specs = [_spec("vn", "kleisli-laws", seed=3, cases=2),
             _spec("dist", "truth-falsum", seed=1, cases=2),
             _spec("dist", "kleisli-laws", seed=4, cases=2),
             _spec("dist", "kleisli-laws", seed=2, cases=2)]
    result = run_suite(specs)
    keys = [(r["instance"], r["law"], r["seed"]) for r in result["reports"]]
    assert keys == sorted(keys)


def test_empty_spec_list_is_success():
    assert run_suite([]) == {"ok": True, "reports": []}


def test_zero_cases_are_kept_and_never_pass():
    specs = default_suite(cases=0, instance="sets", law="kleisli-laws")
    assert [s.cases for s in specs] == [0]
    result = run_suite(specs + [_spec("sets", "subst-functor", cases=2)])
    assert [r["cases"] for r in result["reports"]] == [0, 2]
    assert all(r["failures"] == 0 for r in result["reports"])
    assert not result["ok"]


GOLDEN = Path(__file__).resolve().parent / "data" / "check_exact_seed7.json"


def test_exact_instances_match_golden_report():
    """Byte identity of the seeded and exhaustive reports on the exact
    instances; the float instances are left out because their residuals
    depend on the LAPACK build."""
    result = {name: run_suite(default_suite(seed=7, cases=4, instance=name))
              for name in ("sets", "nondet", "dist", "fp", "ring")}
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text()


def test_gen_case_is_deterministic():
    spec = CaseSpec("sets", "quotient-adjunction", seed=1,
                    bounds={"max_size": 3})
    assert gen_case(spec) == gen_case(spec)
    assert gen_case(spec) != gen_case(
        CaseSpec("sets", "quotient-adjunction", seed=2,
                 bounds={"max_size": 3}))


def test_gen_case_respects_denominator_bound():
    spec = CaseSpec("dist", "quotient-adjunction", seed=7,
                    bounds={"max_den": 4})
    case = gen_case(spec)
    assert case["instance"] == "dist" and case["seed"] == 7
    for _, kernel in case["hom"]:
        for _, frac in kernel:
            den = int(frac.split("/")[1])
            assert den <= 4


def test_gen_case_vn_hom_is_completely_positive():
    bounds = {"max_blocks": 1, "max_block_dim": 2}
    case = gen_case(CaseSpec("vn", "quotient-adjunction", seed=3,
                             bounds=bounds))
    assert all(dim <= 2 for dim in case["object"])
    # regenerate the same raw sample and run the Choi positivity check
    inst = INSTANCES["vn"]
    rng = random.Random(3)
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    f = inst.rand_quotient_hom(rng, X, p, Y, bounds)
    assert inst.arrow_to_json(f) == case["hom"]
    ok, info = inst.cp_check(f)
    assert ok, info


# ---------------------------------------------------------------------------
# All laws pass on the honest instances.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(INSTANCES))
def test_every_applicable_law_passes(name):
    inst = INSTANCES[name]
    specs = [_spec(name, law, cases=6) for law in applicable_laws(inst)]
    result = run_suite(specs)
    bad = [r for r in result["reports"] if r["failures"]]
    assert result["ok"], bad


def test_exhaustive_adjunction_specs_pass():
    specs = [CaseSpec("sets", "quotient-adjunction", 0, 0,
                      {"exhaustive": True, "max_size": 2}),
             CaseSpec("ring", "comprehension-adjunction", 0, 0,
                      {"exhaustive": True, "max_order": 6})]
    result = run_suite(specs)
    assert result["ok"]
    for r in result["reports"]:
        assert r["cases"] > 0


# ---------------------------------------------------------------------------
# Tolerance handling.
# ---------------------------------------------------------------------------


def test_overtight_vn_tolerance_reports_failures_without_crashing():
    specs = default_suite(instance="vn", bounds={"tolerance": 1e-15})
    result = run_suite(specs)
    assert not result["ok"]
    failing = [r for r in result["reports"] if r["failures"]]
    assert failing
    for report in failing:
        assert report["witnesses"]
    # the registry instance must keep its normal tolerance
    assert INSTANCES["vn"].eq_tol == pytest.approx(1e-9)


def test_tolerance_override_leaves_exact_instances_passing():
    spec = _spec("dist", "quotient-adjunction", cases=6,
                 bounds={"tolerance": 1e-15})
    assert run_suite([spec])["ok"]


class _ScaledDistTranspose(DistChain):
    """Divides the weights of its quotient transposes by a factor given
    when the instance is made."""

    def __init__(self, factor=1):
        self.factor = factor

    def transpose_quotient(self, X, p, f):
        g = super().transpose_quotient(X, p, f)
        return Arrow(g.src, g.dst,
                     {x: SubDist(tuple((a, w / self.factor) for a, w in d.weights))
                      for x, d in g.data.items()})


@pytest.mark.parametrize("bounds", [{}, {"tolerance": 0.0}],
                         ids=["instance-tolerance", "given-tolerance"])
def test_tolerance_override_keeps_instance_state(bounds):
    inst = _ScaledDistTranspose(factor=2)
    spec = _spec("dist", "quotient-adjunction", cases=10, bounds=bounds)
    assert run_law(inst, spec).failures > 0
    assert inst.eq_tol == 0.0


# ---------------------------------------------------------------------------
# Mutation detection: a corrupted transpose must flip the suite to failing
# with a replayable witness.
# ---------------------------------------------------------------------------


def _halve_weights(g):
    return Arrow(g.src, g.dst,
                 {x: SubDist(tuple((a, w / 2) for a, w in d.weights))
                  for x, d in g.data.items()})


def _abort_everywhere(g):
    return Arrow(g.src, g.dst, {x: STAR for x in g.src})


def _corrupt(base, which, damage):
    """An instance of `base` whose `which` transpose is passed through
    `damage`; the other direction stays honest."""
    op = f"transpose_{which}"

    def transpose(self, X, p, f):
        return damage(getattr(base, op)(self, X, p, f))

    return type(f"Corrupt{base.__name__}", (base,), {op: transpose})()


DIRECTIONS = ("quotient", "comprehension")


@pytest.mark.parametrize("which", DIRECTIONS)
def test_corrupted_transpose_is_detected(which):
    spec = _spec("dist", f"{which}-adjunction", cases=20)
    corrupt = _corrupt(DistChain, which, _halve_weights)
    result = run_suite([spec], instances={"dist": corrupt})
    assert not result["ok"]
    report = result["reports"][0]
    assert report["failures"] >= 1
    assert 1 <= len(report["witnesses"]) <= MAX_WITNESSES
    witness = report["witnesses"][0]
    # replayable: the case index plus serialized object, predicate, and hom
    assert witness["detail"] == "law violated"
    assert {"case", "X", "p", "f"} <= set(witness)
    assert report["seed"] == spec.seed


@pytest.mark.parametrize("which", DIRECTIONS)
def test_corrupted_transpose_detected_exhaustively(which):
    spec = CaseSpec("sets", f"{which}-adjunction", 0, 0,
                    {"exhaustive": True, "max_size": 2})
    corrupt = _corrupt(SetsChain, which, _abort_everywhere)
    result = run_suite([spec], instances={"sets": corrupt})
    assert not result["ok"]
    assert result["reports"][0]["witnesses"][0]["which"] == which
    assert run_suite([spec])["ok"]


@pytest.mark.parametrize("which", DIRECTIONS)
def test_corruption_in_one_direction_leaves_the_other_passing(which):
    other = next(d for d in DIRECTIONS if d != which)
    corrupt = _corrupt(SetsChain, which, _abort_everywhere)
    seeded = _spec("sets", f"{other}-adjunction", cases=10)
    exhaustive = CaseSpec("sets", f"{other}-adjunction", 0, 0,
                          {"exhaustive": True, "max_size": 2})
    assert run_suite([seeded, exhaustive], instances={"sets": corrupt})["ok"]


def test_honest_registry_is_untouched_by_override():
    spec = _spec("dist", "quotient-adjunction", cases=10)
    corrupt = _corrupt(DistChain, "quotient", _halve_weights)
    assert not run_suite([spec], instances={"dist": corrupt})["ok"]
    assert run_suite([spec])["ok"]


def test_crashing_law_is_reported_not_raised():
    class Exploding(DistChain):
        def transpose_quotient(self, X, p, f):
            raise RuntimeError("boom")

    spec = _spec("dist", "quotient-adjunction", cases=3)
    result = run_suite([spec], instances={"dist": Exploding()})
    report = result["reports"][0]
    assert report["failures"] == 3
    assert "exception" in report["witnesses"][0]["detail"]


# ---------------------------------------------------------------------------
# Default suite composition.
# ---------------------------------------------------------------------------


def test_default_suite_covers_every_instance_and_law():
    specs = default_suite()
    by_instance = {}
    for spec in specs:
        by_instance.setdefault(spec.instance, set()).add(spec.law)
    assert set(by_instance) == set(INSTANCES)
    for name, inst in INSTANCES.items():
        assert by_instance[name] == set(applicable_laws(inst))


def test_default_suite_exhaustive_specs():
    specs = default_suite()
    exhaustive = [s for s in specs if s.bounds.get("exhaustive")]
    assert {s.instance for s in exhaustive} == {"sets", "nondet", "fp", "ring"}
    for s in exhaustive:
        assert s.law.endswith("-adjunction")
        assert s.seed == 0


def test_default_suite_filters():
    only_dist = default_suite(instance="dist")
    assert {s.instance for s in only_dist} == {"dist"}
    only_law = default_suite(law="kleisli-laws")
    assert {s.law for s in only_law} == {"kleisli-laws"}
    assert {s.instance for s in only_law} == set(INSTANCES)
    both = default_suite(instance="vn", law="cp-sanity")
    assert len(both) == 1


def test_default_suite_case_count_override():
    specs = default_suite(cases=7)
    assert all(s.cases == 7 for s in specs if not s.bounds.get("exhaustive"))


def test_default_suite_seed_threads_through():
    specs = default_suite(seed=123)
    sampled = [s for s in specs if not s.bounds.get("exhaustive")]
    assert all(s.seed >= 123 for s in sampled)
    assert any(s.seed == 123 for s in sampled)
