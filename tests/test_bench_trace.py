"""The benchmark's per-layer trace still sees every layer it reports.

bench/tracing.py wraps clext's public functions by name; a deletion or a
rename in clext would silently zero the matching per-layer metric.
"""

import inspect
import sys
from pathlib import Path

import clext.cli
import clext.states

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_per_layer_metrics_are_non_zero(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        # the tracer patches module attributes, so call through clext.cli
        tracer.install()
        codes = [
            clext.cli.main(["moments", "--lambda", "3", "--alpha", "1,1,-2", "--mu", "0",
                            "--cs-alpha", "0", "--out", str(tmp_path / "moments.csv")]),
            clext.cli.main(["state", "--lambda", "2", "--alpha", "1,-1", "--cs-alpha", "-1",
                            "--out", str(tmp_path / "state.csv")]),
            # a kummer weight: G^{2,0}_{1,2} evaluated directly on its moment grid
            clext.cli.main(["moments", "--lambda", "3", "--alpha", "3,-3,0", "--mu", "0",
                            "--cs-alpha", "1", "--out", str(tmp_path / "kummer.csv")]),
            # the alpha = 0 weights of one family call, integrated through the
            # EigenstateMeasures methods
            clext.cli.main(["resolution", "--lambda", "3", "--alpha", "3,-3,0", "--mode",
                            "eigenstate_offdiag", "--out", str(tmp_path / "offdiag.csv")]),
        ]
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert codes == [0, 0, 0, 0]
    metrics = tracer.pass_metrics()
    for name in ("specfun.meijer.points", "measures.moment.calls", "states.build.calls",
                 "cli.calls"):
        assert metrics[name] > 0, name


def test_a_figure_preset_is_one_closed_observable_call(tmp_path, monkeypatch):
    # figure 4a draws four curves; their algebras are one stacked call
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        code = clext.cli.main(["figure", "4a", "--out", str(tmp_path / "4a.csv")])
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert code == 0
    metrics = tracer.pass_metrics()
    assert metrics["observables.closed.calls"] == 1
    assert metrics["figures.points"] == 400


def test_verify_states_counts_every_family_build(tmp_path, monkeypatch):
    # lambda = 4: one build per family alpha = 0, 1, 2 (all its members) and
    # one for the eigenstate
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        code = clext.cli.main(["verify", "states", "--lambda", "4", "--alpha", "5,-3,-2,0",
                               "--out", str(tmp_path / "states.csv")])
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert code == 0
    assert tracer.pass_metrics()["states.build.calls"] == 4


def test_every_state_builder_is_traced(monkeypatch):
    # a public states function that returns a StateVector is a build that
    # states.build.* must count
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        from tracing import STATE_BUILDERS
    finally:
        sys.modules.pop("tracing", None)
    builders = {f"states.{name}" for name, fn in vars(clext.states).items()
                if inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == clext.states.__name__
                and fn.__annotations__.get("return") in ("StateVector", clext.states.StateVector)}
    assert builders and builders <= set(STATE_BUILDERS), builders - set(STATE_BUILDERS)
