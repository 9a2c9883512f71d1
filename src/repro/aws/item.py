"""The attribute map SimpleDB and DynamoDB store, sized once at commit.

Both services keep an item as ``name -> sorted tuple of distinct
values`` and bill reads by its UTF-8 attribute bytes. A stored value
never changes — a write installs a fresh one on the authority and the
replica set alike — so that byte count is fixed when the write commits
and :class:`ItemState` carries it: a Scan / Query / Get page serving
whole stored values adds integers instead of re-encoding every attribute
of every item it crosses. A *projection* is a new value and is measured
by :func:`_attr_size`, the one definition of the formula (the read
cache's ``elasticache.attrs_nbytes`` is a different formula on purpose).
"""

from __future__ import annotations

#: A plain attribute map: name -> tuple of distinct values (sorted).
#: What callers pass in and what every read hands out — theirs to mutate.
Attrs = dict[str, tuple[str, ...]]


def _attr_size(attrs: Attrs) -> int:
    """Billed bytes of an attribute map: name + value, per value."""
    return sum(
        len(name.encode()) + len(value.encode())
        for name, values in attrs.items()
        for value in values
    )


class ItemState(dict):
    """One committed item state (or GSI entry projection): an
    :data:`Attrs` map that knows its :func:`_attr_size` as ``nbytes``.

    Built once by the write path that computed the size (incrementally
    where it can) and immutable from then on — every in-place ``dict``
    method raises, so the authority, every replica and every index
    entry may share one object, and ``nbytes`` cannot go stale. Readers
    copy (``{**state}`` / ``dict(state)`` give a plain ``dict``).
    """

    __slots__ = ("nbytes",)

    def __init__(self, attrs: Attrs | tuple = (), nbytes: int = 0):
        dict.__init__(self, attrs)
        self.nbytes = nbytes

    def _immutable(self, *_args, **_kwargs):
        raise TypeError("a stored item state is immutable; build a new one")

    __setitem__ = __delitem__ = __ior__ = _immutable
    pop = popitem = clear = update = setdefault = _immutable


#: The state of an item that is not there: no attributes, zero bytes.
ABSENT = ItemState()


def size_audit(meter, services, spaces) -> list[str]:
    """Every size kept instead of measured, measured (the services'
    ``size_audit`` oracle). ``spaces`` lists the replicated keyspaces as
    ``(label, billing key, replica set, kept byte total, key_bytes)``:
    each stored state — the authoritative view's and every replica's,
    lagging ones included — is checked against :func:`_attr_size`; each
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
