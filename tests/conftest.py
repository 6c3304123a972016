import math
import time

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")


def ulp_steps(a: float, b: float, limit: int = 8) -> int:
    """Representable values strictly between a and b, plus one if they differ.

    Returns ``limit`` when the gap is at least that big (or either value
    is NaN); 0 means equality, 1 means adjacent floats.
    """
    if math.isnan(a) or math.isnan(b):
        return limit
    if a == b:
        return 0
    lo, hi = (a, b) if a < b else (b, a)
    steps = 0
    v = lo
    while v < hi:
        v = math.nextafter(v, math.inf)
        steps += 1
        if steps >= limit:
            return limit
    return steps


def growth_ratio(prepare, n: int, rounds: int = 7) -> float:
    """Best time at size ``4 * n`` over best time at size ``n``.

    ``prepare(size)`` builds the inputs and returns the call to time.  The
    rounds alternate the two sizes, so a slow spell on a shared machine
    slows both; a linear program reads about 4, a quadratic one about 16.
    """
    calls = {size: prepare(size) for size in (n, 4 * n)}
    best = dict.fromkeys(calls, math.inf)
    for _ in range(rounds):
        for size, call in calls.items():
            start = time.perf_counter()
            call()
            best[size] = min(best[size], time.perf_counter() - start)
    return best[4 * n] / best[n]
