"""The attribute map SimpleDB and DynamoDB store, sized once at commit.

Both services keep an item as ``name -> sorted tuple of distinct
values`` and bill reads by its UTF-8 attribute bytes. A stored value
never changes — a write installs a fresh one on the authority and the
replica set alike — so that byte count is fixed when the write commits
and :class:`ItemState` carries it: a Scan / Query / Get page serving
whole stored values adds integers instead of re-encoding every attribute
of every item it crosses, and hands out the stored value itself. A
*projection* is a new value and is measured by :func:`_attr_size`, the
one definition of the formula (the read cache's
``elasticache.attrs_nbytes`` is a different formula on purpose).
"""

from __future__ import annotations

from typing import Collection

#: An attribute map: name -> tuple of distinct values (sorted). What
#: callers pass in; every read hands out an immutable :class:`ItemState`.
Attrs = dict[str, tuple[str, ...]]


def _attr_size(attrs: Attrs) -> int:
    """Billed bytes of an attribute map: name + value, per value. (A
    loop, not a generator: a read measures every projection it serves,
    most of them one value, where a generator's set-up is the cost.)"""
    total = 0
    for name, values in attrs.items():
        for value in values:
            total += len(name.encode()) + len(value.encode())
    return total


class ItemState(dict):
    """One committed item state (or GSI entry projection): an
    :data:`Attrs` map that knows its :func:`_attr_size` as ``nbytes``.

    Built once — by :func:`sized`, from the write path that computed the
    size (incrementally where it can), or by :func:`project` — and
    immutable from then on: every in-place ``dict`` method raises, so
    the authority, every replica, every index entry, every read result
    and every cache entry may share one object, and ``nbytes`` cannot go
    stale. A reader that needs a mutable map builds one
    (``dict(state)``).

    ``derived`` is one slot for a value a reader works out from the
    state (unset until it does): the state never changes, so the value
    holds for as long as the state is read — it is worked out once per
    committed state, not once per read. Its one user is
    :func:`repro.passlib.serializer.overflow_keys`.
    """

    __slots__ = ("nbytes", "derived")

    def __reduce__(self):  # copy / pickle rebuild it, never assign into it
        return sized, (dict(self), self.nbytes)

    def _immutable(self, *_args, **_kwargs):
        raise TypeError("a stored item state is immutable; build a new one")

    __setitem__ = __delitem__ = __ior__ = _immutable
    pop = popitem = clear = update = setdefault = _immutable


def sized(attrs: Attrs, nbytes: int) -> ItemState:
    """The state of ``attrs``, whose :func:`_attr_size` the caller knows."""
    state = ItemState(attrs)
    state.nbytes = nbytes
    return state


def project(state: ItemState, names: Collection[str]) -> ItemState:
    """The attributes of ``state`` named in ``names``: a new value,
    measured — a read's projection, or a GSI entry's. A read builds one
    per row it serves, so this is :func:`sized` inlined: one Python
    call per row, and ``ItemState`` keeps ``dict``'s C ``__init__``."""
    projected = ItemState({name: values for name, values in state.items() if name in names})
    projected.nbytes = _attr_size(projected)
    return projected


#: The state of an item that is not there: no attributes, zero bytes.
ABSENT = sized({}, 0)


def size_audit(meter, services, spaces) -> list[str]:
    """Every size kept instead of measured, measured (the services'
    ``size_audit`` oracle). ``spaces`` lists the replicated keyspaces as
    ``(label, billing key, replica set, kept byte total, key_bytes)``:
    each stored state — the authoritative view's and those a lagging
    replica still shows — is checked against :func:`_attr_size`; each
    kept total against a walk of the authoritative view at
    ``key_bytes(key) + _attr_size(state)`` per entry; and the meter's
    stored level of each of ``services`` against the sum of its spaces.
    Returns the disagreements (``[]`` = the fast path equals the slow)."""
    problems: list[str] = []

    def check(what: str, kept: int, measured: int) -> None:
        if kept != measured:
            problems.append(f"{what}: kept {kept}, measured {measured}")

    levels = dict.fromkeys(services, 0)
    for label, service, replicas, kept, key_bytes in spaces:
        for state in replicas.stored_values():
            check(f"{label} state {dict(state)}", state.nbytes, _attr_size(state))
        measured = sum(
            key_bytes(key) + _attr_size(state)
            for key, state in replicas.authoritative_items()
        )
        check(f"{label} bytes", kept, measured)
        levels[service] += measured
    for service, measured in levels.items():
        check(f"{service} stored level", meter.stored_bytes(service), measured)
    return problems
