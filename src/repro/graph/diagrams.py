"""Render the architecture diagrams (paper Figures 1–3).

The paper's three figures are dataflow diagrams of the architectures.
Rather than shipping static pictures, this module renders the diagrams
*from the live architecture objects* — each
:class:`~repro.core.base.ProvenanceCloudStore` exposes ``components()``
and ``flows()``, and the renderer lays them out as ASCII (for
terminals: ``python -m repro figures``) or Graphviz DOT (for papers).
Because the diagram is derived from the same objects the protocols run
on, it cannot drift from the implementation.
"""

from __future__ import annotations

from repro.core.base import ProvenanceCloudStore


def render_ascii(store: ProvenanceCloudStore) -> str:
    """One box per component, one arrow line per flow.

    Output shape::

        +-------------+
        | application |  issues read/write/close system calls
        +-------------+
        application -> pass : system calls
    """
    components = store.components()
    flows = store.flows()
    width = max(len(c.name) for c in components) + 2
    lines: list[str] = [f"architecture: {store.name}", ""]
    for component in components:
        bar = "+" + "-" * width + "+"
        lines.append(bar)
        lines.append(f"| {component.name:<{width - 2}} |  {component.role}")
        lines.append(bar)
    lines.append("")
    arrow_width = max(len(f.source) + len(f.target) for f in flows) + 4
    for flow in flows:
        arrow = f"{flow.source} -> {flow.target}"
        lines.append(f"  {arrow:<{arrow_width}} : {flow.label}")
    return "\n".join(lines)


def render_dot(store: ProvenanceCloudStore) -> str:
    """Graphviz DOT for the same structure."""
    lines = [f'digraph "{store.name}" {{', "  rankdir=LR;", "  node [shape=box];"]
    for component in store.components():
        label = component.name.replace('"', "'")
        tooltip = component.role.replace('"', "'")
        lines.append(f'  "{label}" [tooltip="{tooltip}"];')
    for flow in store.flows():
        label = flow.label.replace('"', "'")
        lines.append(f'  "{flow.source}" -> "{flow.target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def diagram_summary(store: ProvenanceCloudStore) -> dict[str, int]:
    """Component/flow counts, used by the figure benchmarks' assertions."""
    return {
        "components": len(store.components()),
        "flows": len(store.flows()),
    }


def validate_diagram(store: ProvenanceCloudStore) -> list[str]:
    """Sanity-check a diagram: every flow endpoint must be a component."""
    names = {c.name for c in store.components()}
    problems = []
    for flow in store.flows():
        if flow.source not in names:
            problems.append(f"flow source {flow.source!r} is not a component")
        if flow.target not in names:
            problems.append(f"flow target {flow.target!r} is not a component")
    return problems
