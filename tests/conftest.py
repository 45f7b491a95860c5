import tracemalloc

import hypothesis

hypothesis.settings.register_profile(
    "polyens", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("polyens")


def traced_peak(fn):
    """fn() and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
