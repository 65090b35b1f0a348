"""Draw a simulator run to its end, for tests that read all of it."""

from latprof.simgen import GroundTruth, simulate_events


def whole_run(cfg):
    """The (events, truth, acquisition rows) of the run of `cfg`."""
    truth, rows = GroundTruth(), []
    return list(simulate_events(cfg, truth, rows)), truth, rows
