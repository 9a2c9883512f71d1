"""The PASS capture engine: syscall observation → flush events.

:class:`PassSystem` is the facade workload generators and examples use to
"run" applications under provenance capture, mirroring how the kernel
PASS observes system calls (§2.4):

* ``read`` — the reading process comes to depend on the file read;
* ``write`` — the written file comes to depend on the writing process;
* pipes relate processes to processes;
* ``close`` — the trigger for all three architectures' store protocols:
  a :class:`~repro.passlib.records.FlushEvent` is queued carrying the
  file's data, its provenance bundle, and the bundles of any transient
  ancestors (processes, pipes) not yet shipped — ancestors ride first so
  (eventual) causal ordering holds by construction.

Example::

    pas = PassSystem()
    pas.stage_input("genome/nr.fasta", SyntheticBlob("nr", 2_000_000))
    with pas.process("blast", argv="-db nr -query q.fa") as blast:
        blast.read("genome/nr.fasta")
        blast.write("out/hits.blast", b"...alignments...")
        blast.close("out/hits.blast")
    events = pas.drain_flushes()   # feed these to an architecture
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.blob import Blob, BytesBlob, as_blob
from repro.errors import ObjectClosed, UnknownObject
from repro.passlib.cache import LocalCache
from repro.passlib.objects import Kind, PassObject
from repro.passlib.records import Attr, FlushEvent, ObjectRef, ProvenanceBundle
from repro.passlib.versioning import VersionManager

#: Default content for files read before anything staged or wrote them.
_DEFAULT_INPUT = b"\0"


class PassSystem:
    """One PASS client host: capture state, local cache, flush queue."""

    def __init__(self, workload: str | None = None):
        self.cache = LocalCache()
        self.versions = VersionManager()
        self.workload = workload
        self._files: dict[str, PassObject] = {}
        #: Transient objects (processes, pipes) that have performed IO,
        #: by object name: the owners a flush finds transient ancestors in.
        self._transients: dict[str, PassObject] = {}
        self._pids = itertools.count(1000)
        self._pipe_ids = itertools.count(1)
        self._flush_queue: list[FlushEvent] = []
        #: Transient object versions already shipped in some flush event.
        self._persisted: set[ObjectRef] = set()
        self.flush_count = 0

    # -- object lookup -------------------------------------------------------

    def file(self, path: str) -> PassObject:
        """Get or create the PASS object for a file path."""
        obj = self._files.get(path)
        if obj is None:
            obj = PassObject(name=path, kind=Kind.FILE)
            self._describe(obj)
            self._files[path] = obj
        return obj

    def has_file(self, path: str) -> bool:
        return path in self._files

    # -- staging external inputs -----------------------------------------------

    def stage_input(self, path: str, content: Blob | bytes | str) -> FlushEvent:
        """Install a pristine input file (e.g. a downloaded data set).

        The file gets a minimal provenance bundle (type/name only — it has
        no ancestors on this host) and is queued for flushing immediately,
        so anything that later reads it has its ancestor persisted first.
        """
        blob = as_blob(content)
        obj = self.file(path)
        self.cache.put_data(path, blob, obj.version)
        return self._flush(obj, blob)

    # -- processes ------------------------------------------------------------------

    def process(
        self,
        name: str,
        argv: str | Iterable[str] = (),
        env: str | dict[str, str] = "",
        pid: int | None = None,
        parent: "ProcessHandle | None" = None,
    ) -> "ProcessHandle":
        """Start observing a process (usable as a context manager).

        ``parent`` records the fork/exec lineage: the child depends on
        the parent process version, so shell wrappers and build drivers
        appear in their outputs' ancestry as PASS captures them.
        """
        pid = pid if pid is not None else next(self._pids)
        obj = PassObject(name=f"proc/{name}.{pid}", kind=Kind.PROCESS)
        obj.add(Attr.TYPE, Kind.PROCESS)
        obj.add(Attr.NAME, name)
        obj.add(Attr.PID, str(pid))
        if parent is not None:
            parent.obj.freeze()
            obj.add_input(parent.obj.ref)
        argv_text = argv if isinstance(argv, str) else " ".join(argv)
        if argv_text:
            obj.add(Attr.ARGV, argv_text)
        env_text = (
            env
            if isinstance(env, str)
            else "\n".join(f"{k}={v}" for k, v in sorted(env.items()))
        )
        if env_text:
            obj.add(Attr.ENV, env_text)
        if self.workload:
            obj.add(Attr.WORKLOAD, self.workload)
        return ProcessHandle(self, obj)

    def make_pipe(self) -> PassObject:
        """Create an anonymous pipe (a transient object)."""
        pipe = PassObject(name=f"pipe/{next(self._pipe_ids)}", kind=Kind.PIPE)
        pipe.add(Attr.TYPE, Kind.PIPE)
        return pipe

    # -- flushing ---------------------------------------------------------------------

    def close_file(self, path: str) -> FlushEvent | None:
        """Application closed a written file: queue its flush event.

        Closing a file whose current version was already flushed and has
        not been modified since is a no-op (returns ``None``) — PASS
        flushes on the *last* close of dirty state, not on every close.
        """
        obj = self._files.get(path)
        if obj is None:
            raise UnknownObject(path)
        try:
            entry = self.cache.get_data(path)
        except Exception:
            raise UnknownObject(f"{path}: no cached data to flush") from None
        if obj.current_version_flushed and not entry.dirty:
            return None
        return self._flush(obj, entry.blob)

    def drain_flushes(self) -> list[FlushEvent]:
        """Take all queued flush events (in causal order)."""
        events, self._flush_queue = self._flush_queue, []
        return events

    def trim_flushed(self) -> int:
        """Release record history that can never be flushed again.

        Paper-scale traces (tens of thousands of events) would otherwise
        accumulate every superseded version's records in memory. Safe to
        call at any quiescent point (no event queued): cached provenance
        bundles were already handed to flush events, file version history
        is never re-read, and transient history is only needed for
        versions not yet persisted.
        """
        freed = self.cache.clear_provenance()
        for obj in self._files.values():
            freed += len(obj.history)
            obj.history.clear()
        for obj in self._transients.values():
            kept = {
                version: records
                for version, records in obj.history.items()
                if ObjectRef(obj.name, version) not in self._persisted
            }
            freed += len(obj.history) - len(kept)
            obj.history = kept
        return freed

    # -- internals ------------------------------------------------------------------------

    def _describe(self, obj: PassObject) -> None:
        """Attach the descriptor records every version carries."""
        obj.add(Attr.TYPE, obj.kind)
        base = obj.name.rsplit("/", 1)[-1]
        if obj.kind == Kind.PROCESS:
            # Process object names are "proc/<program>.<pid>"; the NAME
            # record carries the program, which Q2-style queries match.
            base = base.rsplit(".", 1)[0]
        obj.add(Attr.NAME, base)
        if self.workload:
            obj.add(Attr.WORKLOAD, self.workload)

    def _ensure_descriptors(self, obj: PassObject) -> None:
        """Descriptor records after a version bump (type/name again)."""
        if not obj._typed:
            self._describe(obj)

    def _flush(self, obj: PassObject, blob: Blob) -> FlushEvent:
        self._ensure_descriptors(obj)
        self.versions.on_observe(obj)
        bundle = obj.snapshot_bundle()
        ancestors = self._collect_transient_ancestors(bundle)
        obj.mark_flushed()
        self.cache.put_provenance(bundle)
        self.cache.mark_clean(obj.name)
        event = FlushEvent(bundle=bundle, data=blob, ancestors=tuple(ancestors))
        self._flush_queue.append(event)
        self.flush_count += 1
        return event

    def _collect_transient_ancestors(
        self, bundle: ProvenanceBundle
    ) -> list[ProvenanceBundle]:
        """Transient ancestor bundles not yet persisted, ancestors first.

        Walks INPUT/prev_version references transitively through
        *transient* objects (a process's inputs may reference a pipe whose
        inputs reference another process, ...); persistent ancestors were
        flushed by their own close events.
        """
        collected: list[ProvenanceBundle] = []
        seen: set[ObjectRef] = set()

        def walk(ref: ObjectRef) -> None:
            if ref in seen or ref in self._persisted:
                return
            seen.add(ref)
            owner = self._transients.get(ref.name)
            if owner is None:
                return  # persistent object: flushed via its own close
            if owner.version == ref.version:
                # Persisting externalises this version: freeze it so any
                # later input to the object cuts a new version instead of
                # silently extending what the cloud already holds.
                self.versions.on_observe(owner)
            ancestor_bundle = owner.snapshot_bundle(ref.version)
            for parent in ancestor_bundle.inputs():
                walk(parent)
            collected.append(ancestor_bundle)
            self._persisted.add(ref)

        for ref in bundle.inputs():
            walk(ref)
        return collected

    def register_transient(self, obj: PassObject) -> None:
        self._transients[obj.name] = obj


class ProcessHandle:
    """Syscall-level view of one observed process."""

    def __init__(self, system: PassSystem, obj: PassObject):
        self._system = system
        self.obj = obj
        self._exited = False
        system.register_transient(obj)

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "ProcessHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.exit()

    def exit(self) -> None:
        self._exited = True

    @property
    def ref(self) -> ObjectRef:
        return self.obj.ref

    # -- syscalls -----------------------------------------------------------

    def read(self, path: str) -> Blob:
        """``read(2)``: this process now depends on the file's version.

        Reading a file nobody staged or wrote creates it with minimal
        placeholder content, so the provenance graph never references a
        file the capture layer has not seen. Reading a *dirty, not yet
        flushed* file forces its flush first: the version being depended
        on must reach the backend before any descendant does, or causal
        ordering could never be satisfied (§3, property 2).
        """
        self._check_alive()
        system = self._system
        file_obj = system.file(path)
        if not system.cache.has_data(path):
            system.stage_input(path, BytesBlob(_DEFAULT_INPUT))
        elif not file_obj.current_version_flushed:
            system._flush(file_obj, system.cache.get_data(path).blob)
        system.versions.on_read(self.obj, file_obj)
        # The read may have cut a new version of this process (cycle
        # avoidance): re-attach its descriptor records.
        system._ensure_descriptors(self.obj)
        return system.cache.get_data(path).blob

    def write(self, path: str, content: Blob | bytes | str) -> ObjectRef:
        """``write(2)``: the file now depends on this process.

        Returns the reference to the (possibly freshly cut) file version
        holding the new content.
        """
        self._check_alive()
        system = self._system
        file_obj = system.file(path)
        system.versions.on_write(self.obj, file_obj)
        system._ensure_descriptors(file_obj)
        system.cache.put_data(path, as_blob(content), file_obj.version)
        return file_obj.ref

    def close(self, path: str) -> FlushEvent | None:
        """``close(2)`` on a written file: triggers the backend flush.

        Returns ``None`` when the current version was already flushed
        and nothing changed since (see ``PassSystem.close_file``).
        """
        self._check_alive()
        return self._system.close_file(path)

    # -- pipes -------------------------------------------------------------------

    def write_pipe(self, pipe: PassObject) -> None:
        """Send data into a pipe (pipe depends on this process)."""
        self._check_alive()
        self._system.register_transient(pipe)
        self._system.versions.on_write(self.obj, pipe)
        self._system._ensure_descriptors(pipe)

    def read_pipe(self, pipe: PassObject) -> None:
        """Consume a pipe (this process depends on the pipe)."""
        self._check_alive()
        self._system.register_transient(pipe)
        self._system.versions.on_read(self.obj, pipe)
        self._system._ensure_descriptors(self.obj)

    # -- internals ---------------------------------------------------------------

    def _check_alive(self) -> None:
        if self._exited:
            raise ObjectClosed(f"process {self.obj.name!r} has exited")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProcessHandle({self.obj.name!r}, v{self.obj.version})"
