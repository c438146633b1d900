from hypothesis import settings

# Property tests draw the same examples on every run, with no time limit per
# example and a bounded count, so the suite stays reproducible and its time
# steady.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("tier1")
