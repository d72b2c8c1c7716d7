"""Machine-speed probe: a fixed piece of work whose run time tracks the host.

On a shared host the same program runs 20-40% slower in some minutes than in
others. bench/run.py runs this probe in its own interpreter between the
measured children and divides each child's times by the probe time next to
it, so that the speed of the host at that moment cancels out.

The work resembles priorcast's hot loop without using priorcast: a two-layer
ReLU net with a softmax head trained by SGD on a 32-row batch, a B x B Gram
matrix per step, and a stable argsort of 2000 scores every 50 steps. It
depends only on numpy, so a change to the program under test cannot change
it.

    python3 bench/probe.py    # prints the wall and CPU seconds of the timed work
"""

import sys
import time

import numpy as np

STEPS = 4000
WARMUP_STEPS = 50


def work(steps):
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((32, 24))
    labels = rng.integers(0, 10, 32)
    w1 = rng.standard_normal((24, 64)) * 0.1
    w2 = rng.standard_normal((64, 10)) * 0.1
    onehot = np.eye(10)[labels]
    scores = rng.standard_normal(2000)
    acc = 0.0
    for i in range(steps):
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        d = (p - onehot) / len(x)
        grad_w2 = h.T @ d
        grad_w1 = x.T @ ((d @ w2.T) * (h > 0))
        w1 -= 0.01 * grad_w1
        w2 -= 0.01 * grad_w2
        acc += float((h @ h.T).trace())
        if i % 50 == 0:
            acc += float(np.argsort(-scores, kind="stable")[0])
    return acc


def main():
    work(WARMUP_STEPS)
    start, cpu_start = time.perf_counter(), time.process_time()
    work(STEPS)
    print(repr(time.perf_counter() - start), repr(time.process_time() - cpu_start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
