"""Project-specific developer tooling: static checks + a runtime sanitizer.

Two halves, one purpose — the invariants this codebase leans on
(metering coverage, simulated determinism, serializer and router-handle
discipline, exact per-shard spend attribution) are enforced by machines
instead of reviewer memory:

* :mod:`repro.devtools.provlint` — an AST-based static analysis pass
  (``python -m repro.devtools.provlint src/``) with four checkers,
  PL002..PL005. Run by ``make lint-prov`` and the CI ``lint-prov`` job.
* :mod:`repro.devtools.sanitize` — the opt-in runtime sanitizer
  (``sanitize.ACTIVE = True``): at the end of every sharded query the
  engine audits that the query's own meter scope equals the sum of its
  per-stream and memo scopes, recording any request or byte spent
  outside them. Off (the default) it is inert and the meter is
  byte-identical to the unsanitized build.

Neither module imports the simulation layers above it, so the tooling
can never perturb what it checks.
"""

from repro.devtools.sanitize import (
    Violation,
    reset,
    violations,
)

__all__ = [
    "Violation",
    "reset",
    "violations",
]
