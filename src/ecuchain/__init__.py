"""ecuchain: two-tier permissioned ledger and challenge-response protocol
for vehicle ECU firmware integrity, with a deterministic traffic simulator
and benchmark harness.

Import each name from the module that defines it; the package root loads
no module of its own.
"""

__version__ = "0.1.0"
