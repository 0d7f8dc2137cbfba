from hypothesis import settings

# Property tests draw the same examples on every run, so tier-1 is
# deterministic; each test keeps its own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
