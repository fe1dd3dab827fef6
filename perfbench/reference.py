"""A fixed program that the timed run spawns between qirtk commands.

It does what every qirtk command does, with no qirtk code: start a
fresh interpreter, import numpy, run pure-Python bytecode and sweep a
state-sized array. Its work never changes, so its wall time tracks only
how fast the host runs at that moment; run.py divides each command's
wall time by the reference runs on either side of it.
"""

import numpy

state = numpy.ones(1 << 18, dtype=complex)      # 4 MB, an 18-qubit state
for _ in range(40):
    state *= 1.000001
total = 0
for i in range(700_000):
    total += i * i
