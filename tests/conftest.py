from hypothesis import HealthCheck, Phase, settings

# No shrinking: a failing property reports its first counterexample at once,
# where shrinking it could run for minutes.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
