"""PASS versioning: the freeze-and-bump rule that keeps provenance acyclic.

PASS "versions objects appropriately in order to preserve causality"
(§2.4). The hazard is the classic provenance cycle [Braun et al. 2006]:
process P reads file F, then writes F — without versioning, F depends on
P and P depends on F. PASS breaks such cycles by *versioning*: an object
version is **frozen** the moment anything observes it (a process reads
the file, or a descendant's provenance references the process); a write
to a frozen version cuts a *new* version that depends on the old one.

The invariant maintained here (and property-tested in the suite):

    every INPUT/prev_version edge points from a strictly younger
    version-creation event to an already-frozen version, so the
    version-level provenance graph is a DAG.

The :class:`VersionManager` exposes the two syscall-shaped entry points
the capture layer uses — :meth:`on_read` and :meth:`on_write` — plus
:meth:`on_observe` for flush-time freezing of transient ancestors.
"""

from __future__ import annotations

from repro.passlib.objects import PassObject


class VersionManager:
    """Applies the freeze-and-bump rule to reads and writes."""

    def __init__(self) -> None:
        self.version_bumps = 0
        self.cycles_avoided = 0

    # -- syscall hooks -------------------------------------------------------

    def on_read(self, reader: PassObject, source: PassObject) -> None:
        """``reader`` (a process) read ``source`` (file or pipe).

        The read makes the reader depend on the source's current version,
        which is thereby observed and frozen. If the reader's own current
        version is already frozen (some output already depends on it),
        the reader gets a new version first — otherwise that output would
        retroactively appear to depend on the new input, misstating
        causality (and enabling cycles).
        """
        source.freeze()
        if reader.frozen:
            self._bump(reader)
            self.cycles_avoided += 1
        if not reader.has_input(source.ref):
            reader.add_input(source.ref)

    def on_write(self, writer: PassObject, target: PassObject) -> None:
        """``writer`` (a process) wrote ``target`` (file or pipe).

        The write makes the target depend on the writer's current
        version; the writer's version is thereby observed and frozen. If
        the target's current version was itself already observed (someone
        read it, or it was flushed), the write must cut a new version of
        the target instead of mutating history.
        """
        writer.freeze()
        if target.frozen or target.current_version_flushed:
            self._bump(target)
        if not target.has_input(writer.ref):
            target.add_input(writer.ref)

    def on_observe(self, obj: PassObject) -> None:
        """An external observer (a flush) captured ``obj``'s current version."""
        obj.freeze()

    # -- internals ---------------------------------------------------------------

    def _bump(self, obj: PassObject) -> None:
        obj.bump_version()
        self.version_bumps += 1
