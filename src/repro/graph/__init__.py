"""Architecture diagrams and provenance interchange formats.

* :mod:`repro.graph.diagrams` — renders each architecture's component
  and dataflow structure (the paper's Figures 1–3) as ASCII art and DOT;
* :mod:`repro.graph.export` — stored provenance as PROV-JSON and as a
  Graphviz lineage digraph.

Lineage questions over provenance bundles (ancestors, descendants,
Q2/Q3 oracles, causal closure) are answered by
:class:`repro.query.ancestry.AncestryWalker`.
"""

from repro.graph.diagrams import render_ascii, render_dot

__all__ = ["render_ascii", "render_dot"]
