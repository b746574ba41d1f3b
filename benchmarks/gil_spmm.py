"""Does the sparse kernel release the GIL?  `PYTHONPATH=src python benchmarks/gil_spmm.py`"""
import threading, time
import numpy as np, scipy.sparse as sp
from repro.graphs.csr import CSRMatrix

s = CSRMatrix.from_scipy(sp.random(20000, 20000, density=5e-4, format="csr", random_state=0))
x = np.random.default_rng(0).standard_normal((20000, 64))
def sparse(): [s.matmul(x) for _ in range(40)]  # scipy's csr_matvecs, as in spmm
def python(): sum(i * i for i in range(3_000_000))
def timed(fn):
    t0 = time.perf_counter(); fn(); return time.perf_counter() - t0
a, b = timed(sparse), timed(python)
def both():
    t = threading.Thread(target=sparse); t.start(); python(); t.join()
ab = timed(both)
print(f"spmm {a:.2f} s, Python loop {b:.2f} s, both on two threads {ab:.2f} s")
print(f"sum {a + b:.2f} s, max {max(a, b):.2f} s: {'GIL held' if ab > 0.9 * (a + b) else 'overlapped'}")
