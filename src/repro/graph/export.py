"""Export stored provenance to interchange formats.

The provenance community settled on the W3C PROV data model (entities,
activities, and the *used* / *wasGeneratedBy* / *wasDerivedFrom* /
*wasInformedBy* relations). PASS records map onto it naturally:

* **files** are PROV *entities* (one per version);
* **processes** are PROV *activities*;
* a process ``input`` edge to a file is ``used``;
* a file ``input`` edge to a process is ``wasGeneratedBy``;
* a file's ``prev_version`` edge is ``wasRevisionOf`` (a derivation);
* a process ``input`` edge to a process is ``wasInformedBy``;
* pipes, being transient channels, export as entities generated and
  used by their endpoint activities.

:func:`to_prov_json` emits a PROV-JSON-shaped document (the subset the
mapping needs); :func:`lineage_dot` renders an object's ancestry as a
Graphviz digraph, the artifact people actually paste into papers.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.passlib.records import Attr, ObjectRef, ProvenanceBundle

#: Prefix used for qualified names in the PROV document.
NAMESPACE = "pass"


def _qualified(ref: ObjectRef) -> str:
    return f"{NAMESPACE}:{ref.encode()}"


def _is_activity(ref: ObjectRef) -> bool:
    return ref.name.startswith("proc/")


def to_prov_json(bundles: Iterable[ProvenanceBundle]) -> dict:
    """Convert bundles to a PROV-JSON-shaped document.

    >>> doc = to_prov_json([])
    >>> sorted(doc) [:3]
    ['activity', 'entity', 'prefix']
    """
    document: dict = {
        "prefix": {NAMESPACE: "urn:pass-cloud-repro:"},
        "entity": {},
        "activity": {},
        "used": {},
        "wasGeneratedBy": {},
        "wasDerivedFrom": {},
        "wasInformedBy": {},
    }
    relation_counter = 0

    def relation_id() -> str:
        nonlocal relation_counter
        relation_counter += 1
        return f"_:r{relation_counter}"

    for bundle in bundles:
        subject = bundle.subject
        subject_id = _qualified(subject)
        attributes = {
            f"{NAMESPACE}:{record.attribute}": record.encoded_value()
            for record in bundle.records
            if record.attribute not in Attr.REF_VALUED
        }
        if bundle.kind == "process":
            document["activity"][subject_id] = attributes
        else:
            attributes[f"{NAMESPACE}:kind"] = bundle.kind
            document["entity"][subject_id] = attributes

        for record in bundle.records:
            if record.attribute not in Attr.REF_VALUED or not isinstance(
                record.value, ObjectRef
            ):
                continue
            parent = record.value
            parent_id = _qualified(parent)
            if record.attribute == Attr.VERSION_OF:
                document["wasDerivedFrom"][relation_id()] = {
                    "prov:generatedEntity": subject_id,
                    "prov:usedEntity": parent_id,
                    "prov:type": "prov:Revision",
                }
            elif bundle.kind == "process" and _is_activity(parent):
                document["wasInformedBy"][relation_id()] = {
                    "prov:informed": subject_id,
                    "prov:informant": parent_id,
                }
            elif bundle.kind == "process":
                document["used"][relation_id()] = {
                    "prov:activity": subject_id,
                    "prov:entity": parent_id,
                }
            elif _is_activity(parent):
                document["wasGeneratedBy"][relation_id()] = {
                    "prov:entity": subject_id,
                    "prov:activity": parent_id,
                }
            else:
                # file <- file/pipe without an activity in between:
                # a plain derivation.
                document["wasDerivedFrom"][relation_id()] = {
                    "prov:generatedEntity": subject_id,
                    "prov:usedEntity": parent_id,
                }
    return document


def prov_json_dumps(bundles: Iterable[ProvenanceBundle], indent: int = 2) -> str:
    """Serialise to a PROV-JSON string."""
    return json.dumps(to_prov_json(bundles), indent=indent, sort_keys=True)


def lineage_dot(
    bundles: Iterable[ProvenanceBundle],
    focus: ObjectRef | None = None,
) -> str:
    """Render provenance as Graphviz DOT: boxes for files, ovals for
    processes, dashed edges for version chains.

    With ``focus`` set, only the focus object's ancestry is drawn (the
    figure a scientist wants when asked "where did this result come
    from?").
    """
    bundle_map = {bundle.subject: bundle for bundle in bundles}
    if focus is not None:
        keep: set[ObjectRef] = set()
        frontier = [focus]
        while frontier:
            node = frontier.pop()
            if node in keep:
                continue
            keep.add(node)
            bundle = bundle_map.get(node)
            if bundle is not None:
                frontier.extend(bundle.inputs())
        bundle_map = {ref: b for ref, b in bundle_map.items() if ref in keep}

    lines = ["digraph lineage {", "  rankdir=BT;"]
    for ref, bundle in sorted(bundle_map.items()):
        label = ref.encode().replace('"', "'")
        if bundle.kind == "process":
            shape = "ellipse"
        elif bundle.kind == "pipe":
            shape = "diamond"
        else:
            shape = "box"
        lines.append(f'  "{label}" [shape={shape}];')
    for ref, bundle in sorted(bundle_map.items()):
        label = ref.encode().replace('"', "'")
        for record in bundle.records:
            if record.attribute not in Attr.REF_VALUED or not isinstance(
                record.value, ObjectRef
            ):
                continue
            parent = record.value.encode().replace('"', "'")
            style = ' [style=dashed]' if record.attribute == Attr.VERSION_OF else ""
            lines.append(f'  "{label}" -> "{parent}"{style};')
    lines.append("}")
    return "\n".join(lines)
