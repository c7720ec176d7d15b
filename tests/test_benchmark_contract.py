"""The benchmark under perfbench/ imports and patches package names directly.

A rename or deletion in src/ that breaks it fails here, in the test suite,
instead of only when the benchmark runs.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_MODULES = ("tracing", "workloads")


def test_benchmark_workloads_run_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in PERFBENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        import tracing
        import workloads

        tracer = tracing.Tracer()
        # install() looks up every name the tracer patches
        tracer.install()
        try:
            with tracer.span("setup"):
                states = {name: setup(1, tmp_path)
                          for name, (setup, _) in workloads.WORKLOADS.items()}
            # da-envelope is the one pass whose searches reach the tracer's
            # maximize wrapper; ta-brute reads t_a off its hull and, though
            # it still passes a search budget and seed, runs none.  miso-cli
            # runs the MISO sweeps under its _minimax_two_vec and
            # region_boundary wrappers
            searches = {}
            for name in ("da-envelope", "ta-brute", "miso-cli", "fme-project"):
                run_pass = workloads.WORKLOADS[name][1]
                first = len(tracer.spans)
                with tracer.span("pass"):
                    result = run_pass(states[name], tmp_path)
                assert result.correct, (name, result.errors)
                searches[name] = sum(span.name == "search.maximize"
                                     for span in tracer.spans[first:])
            assert searches["ta-brute"] == 0
            assert searches["da-envelope"] >= 1
        finally:
            tracer.uninstall()
    finally:
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)
