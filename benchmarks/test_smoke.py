"""The benchmark at tiny sizes: every workload runs, untraced and traced."""
import run


def test_every_workload_prints_every_metric_and_passes_its_checks():
    assert run.smoke()
