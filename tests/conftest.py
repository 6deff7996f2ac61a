"""The tier-1 hypothesis profile, loaded before any test module builds its
settings: every property draws the same examples on every run (derandomize,
so no example database is written), runs without a per-example deadline,
and skips the explain phase, which on a slow property (a whole simulate
run per example) can take minutes to report a failure that shrinking has
already found. Each property's own settings state only its example count
and health checks."""

from hypothesis import Phase, settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("tier1")
