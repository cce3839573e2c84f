"""Self-time arithmetic and wrapper hygiene of the benchmark's tracer."""

import numpy as np
import pytest

import tracing
from tracing import Tracer, self_times, union_length


def test_self_time_of_nested_and_overlapping_children():
    # 0 root [0, 10]
    #   1 child [1, 4]
    #     2 grandchild [2, 3]
    #   3 child [3, 6]      overlaps child 1 on [3, 4]
    #   4 child [5, 5.5]    inside child 3
    #   5 child [9, 12]     runs past the root's end
    starts = [0.0, 1.0, 2.0, 3.0, 5.0, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 5.5, 12.0]
    parents = [-1, 0, 1, 0, 0, 0]
    own = self_times(starts, ends, parents)
    # Root: children cover [1, 6] and [9, 10], so 6 of 10 seconds.
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(3.0)
    assert sum(own[:1]) + union_length(list(zip(starts[1:], ends[1:])), 0, 10) == pytest.approx(10.0)


def test_union_length_clips_and_merges():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert union_length([]) == 0.0


def test_install_traces_layers_and_uninstall_restores_them():
    from effectus import core, harness, vnlinalg
    from effectus.registry import INSTANCES

    before = (vnlinalg.hermitian_eig, harness.hom_check, core.atom_key,
              harness._arrow_key)
    tracer = Tracer()
    with tracer:
        assert harness.hom_check is not before[1]
        assert "compose" in vars(INSTANCES["sets"])
        report = harness.run_law(INSTANCES["vn"], harness.CaseSpec("vn", "cp-sanity", 3, 2))
    assert report.cases == 2 and report.failures == 0
    after = (vnlinalg.hermitian_eig, harness.hom_check, core.atom_key,
             harness._arrow_key)
    assert after == before
    assert all(op not in vars(inst) for inst in INSTANCES.values()
               for op in tracing.INSTANCE_OPS)
    assert tracer.trace_meta == {1: {"instance": "vn", "law": "cp-sanity",
                                     "kind": "seeded", "cases": 2}}
    metrics = tracer.layer_metrics({"triples": 0, "candidates": 0,
                                    "skipped_over_cap": 0})
    assert metrics["vnlinalg.hermitian_eig.calls"] > 0
    assert metrics["vn.cp_check.calls"] > 0
    assert metrics["vnlinalg.hermitian_eig.unconverged"] == 0
    assert metrics["harness.run_law.self_s"] > 0


def test_iterator_span_times_each_step_and_keeps_eager_errors():
    tracer = Tracer()

    def produce(n):
        yield from range(n)

    def refuse():
        raise ValueError("not enumerable")

    assert list(tracer.iterator_span("x.iter", produce)(3)) == [0, 1, 2]
    # One span per item plus the step that finds the end.
    assert len(tracer.names) == 4
    with pytest.raises(ValueError):
        tracer.iterator_span("x.iter", refuse)()


def test_eig_residual_is_taken_against_the_hermitian_part():
    from effectus import vnlinalg

    tracer = Tracer()
    eig = tracer.eig_span(vnlinalg.hermitian_eig)
    # Hermitian within the solver's tolerance; the anti-Hermitian part alone
    # would leave a residual of about 5e-10 against the raw input.
    h = np.array([[0.5, 0.1j], [-0.1j, 0.3]])
    skew = np.array([[0.0, 5e-10], [-5e-10, 0.0]])
    eig(h + skew)
    assert tracer.counts["vnlinalg.hermitian_eig.unconverged"] == 0
    wrong = tracer.eig_span(lambda a: (np.zeros(2), np.eye(2)))
    wrong(h)
    assert tracer.counts["vnlinalg.hermitian_eig.unconverged"] == 1
