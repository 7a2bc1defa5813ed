"""Time one set-up of bvode in this fresh process and print it in seconds.

Set-up is importing bvode, building the three mollifier profiles (the bump
profile builds its tail table) and making the first call into every layer.
"""

import time

start = time.perf_counter()
import workloads  # noqa: E402  (imports numpy and bvode)

workloads.setup()
print(repr(time.perf_counter() - start))
