"""provlint — the project's AST invariant checker.

Usage::

    python -m repro.devtools.provlint src/            # or src tests benchmarks
    python -m repro.devtools.provlint --json src/     # machine-readable

Four checkers enforce the disciplines the codebase documents but Python
cannot express (exit status 1 when any fires; there is no PL001 — the
numbering is kept stable):

* **PL002 metering/billing coverage** — every service key a ``Meter``
  call records must have a matching ``PriceBook.cost`` line and every
  price line must belong to a metered key (no "metered but unpriced"
  spend, no dead price lines). Ownership is by *longest dotted prefix*
  and exclusive: ``dynamodb.gsi.range.*`` lines belong to
  ``dynamodb-gsi-range`` alone — they cannot ride on the shorter
  ``dynamodb-gsi`` prefix, and every metered key must own at least one
  line outright. Keys chosen at runtime are collected from conditional
  expressions and from ``billing_key`` bindings (the repo's convention
  for a dynamically selected service key — assignments and parameter
  defaults both count). ``self._meter`` may only be touched inside a
  *service class* (one whose ``__init__`` assigns it — the services are
  what records spend) or a ``Meter.scoped`` block.
* **PL003 determinism** — no wall-clock (``time.time()``,
  ``datetime.now()``, …) and no module-level ``random.*`` draws in
  library code; simulation time comes from ``SimClock`` and randomness
  from seeded ``random.Random(seed)`` constructions
  (``make_rng_family``).
* **PL004 serializer discipline** — no manual ``":v"`` key surgery
  (splitting on it or f-string-building around it) outside the wire
  codec in ``repro.passlib`` — the exact bug class behind the PR 6
  ``rsplit(":v")`` COPY-destination corruption.
* **PL005 router-handle discipline** — no ``ShardRouter(...)``
  construction and no ``.router`` attribute writes outside
  ``repro.sharding``/``repro.migration``; consumers obtain routing via
  :func:`repro.migration.handle.fresh_handle` / ``as_handle`` and hold
  a ``RouterHandle``.

Scope: PL002, PL003, and PL005 apply to library code (paths under a
``repro`` package that are not tests or benchmarks); PL004 applies to
every scanned file — hand-rolled key parsing in a test corrupts oracles
just as surely. Directory walks skip any directory containing a
``.provlint-ignore`` marker file (the known-bad lint fixtures live in
one); explicitly named files are always checked.

The allowlist below is deliberately tiny and every entry carries its
justification inline. Extend it only for code that *is* the mechanism a
rule protects (a new wire codec) — never to mute a
violation in consumer code; fix the consumer instead.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: Marker file: a directory containing one is skipped by directory
#: walks (explicit file arguments are still checked).
IGNORE_MARKER = ".provlint-ignore"

#: The versioned-reference wire marker PL004 polices. Kept in one
#: constant (and interpolated into diagnostics) so provlint's own
#: messages do not trip PL004's f-string check.
VREF_MARKER = ":v"

#: Meter recording methods whose first argument is a billing service key.
METER_KEYED_OPS = frozenset(
    {
        "record_request",
        "record_transfer_in",
        "record_transfer_out",
        "record_capacity",
        "adjust_stored",
    }
)

#: Wall-clock call sites PL003 rejects (module attribute -> callables).
WALL_CLOCK_CALLS = {
    "time": frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                       "perf_counter", "perf_counter_ns", "sleep"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}

# --------------------------------------------------------------------------
# The allowlist. Keep it tiny; every entry is a mechanism, not a consumer.
# --------------------------------------------------------------------------

ALLOWLIST: dict[str, dict[str, str]] = {
    "PL004": {
        # ObjectRef.encode()/decode() *are* the ':v' wire format; the
        # serializer builds on them. Everyone else must call them.
        "repro/passlib/records.py": "ObjectRef is the ':v' wire codec itself",
        "repro/passlib/serializer.py": "the serializer owns the wire format",
    },
}


def _allowed(rule: str, path: Path) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(suffix) for suffix in ALLOWLIST.get(rule, ()))


@dataclass(frozen=True)
class Finding:
    """One structured lint finding."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message} [fix: {self.hint}]"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


def is_library(path: Path) -> bool:
    """Library code: inside a ``repro`` package, not tests/benchmarks."""
    parts = path.as_posix().split("/")
    return "repro" in parts and "tests" not in parts and "benchmarks" not in parts


def _self_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _assigns_self_attr(fn: ast.FunctionDef, attr: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if _self_attr(node, attr):
                return True
    return False


def _init_of(cls: ast.ClassDef) -> ast.FunctionDef | None:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            return node
    return None


class _ModuleImports:
    """Which bare names in a module refer to stdlib clock/random modules."""

    def __init__(self, tree: ast.Module):
        self.modules: dict[str, str] = {}   # local name -> module name
        self.from_names: dict[str, str] = {}  # local name -> "module.attr"
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )


# --------------------------------------------------------------------------
# Per-file checker
# --------------------------------------------------------------------------


class FileChecker(ast.NodeVisitor):
    """Runs every per-file rule over one parsed module."""

    def __init__(self, path: Path, tree: ast.Module, repo_data: "RepoData"):
        self.path = path
        self.tree = tree
        self.library = is_library(path)
        self.imports = _ModuleImports(tree)
        self.findings: list[Finding] = []
        self.repo = repo_data
        #: Per enclosing class: is it a service class (its ``__init__``
        #: assigns ``self._meter``)?
        self._service_class_stack: list[bool] = []
        self._with_scoped_depth = 0

    def flag(self, rule: str, node: ast.AST, message: str, hint: str) -> None:
        if _allowed(rule, self.path):
            return
        self.findings.append(
            Finding(
                path=self.path.as_posix(),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
                hint=hint,
            )
        )

    def run(self) -> list[Finding]:
        self.visit(self.tree)
        return self.findings

    # -- structure tracking ------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        init = _init_of(node)
        self._service_class_stack.append(
            init is not None and _assigns_self_attr(init, "_meter")
        )
        self.generic_visit(node)
        self._service_class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A parameter default is a billing_key binding too (the keyed op
        # inside sees only the bare parameter name).
        positional = node.args.posonlyargs + node.args.args
        defaulted = positional[len(positional) - len(node.args.defaults):]
        pairs = list(zip(defaulted, node.args.defaults)) + [
            (arg, default)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if arg.arg == "billing_key" or arg.arg.endswith("_billing_key"):
                self._record_metered_keys(default, node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        scoped = any(
            isinstance(item.context_expr, ast.Call)
            and isinstance(item.context_expr.func, ast.Attribute)
            and item.context_expr.func.attr == "scoped"
            for item in node.items
        )
        if scoped:
            self._with_scoped_depth += 1
        self.generic_visit(node)
        if scoped:
            self._with_scoped_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        self._check_pl003(node)
        self._check_pl004_split(node)
        self._check_pl005_construction(node)
        self._collect_meter_keys(node)
        self.generic_visit(node)

    # -- PL002: metering/billing coverage ----------------------------------

    def _resolve_key_values(self, key: ast.AST) -> list[str]:
        """Every service key an expression can evaluate to.

        Handles the forms billing keys actually take at call and binding
        sites: string literals, ``billing.S3``-style attributes (returned
        as ``$S3`` and resolved against billing.py's constants in the
        cross-check), names imported from ``repro.aws.billing``, and
        conditional expressions — a ``a if cond else b`` key contributes
        *both* branches, the way ``query_index`` picks between the plain
        and range GSI keys.
        """
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return [key.value]
        if isinstance(key, ast.Attribute) and isinstance(key.value, ast.Name):
            return [f"${key.attr}"]
        if isinstance(key, ast.Name):
            origin = self.imports.from_names.get(key.id, "")
            if origin.startswith("repro.aws.billing."):
                return [f"${origin.rsplit('.', 1)[1]}"]
            return []
        if isinstance(key, ast.IfExp):
            return self._resolve_key_values(key.body) + self._resolve_key_values(
                key.orelse
            )
        return []

    def _record_metered_keys(self, key: ast.AST, node: ast.AST) -> None:
        if not self.library:
            return
        for resolved in self._resolve_key_values(key):
            self.repo.metered_keys.append(
                (resolved, self.path.as_posix(), node.lineno)
            )

    def _collect_meter_keys(self, node: ast.Call) -> None:
        """Record (service key, site) for the repo-level price-book check."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in METER_KEYED_OPS):
            return
        if not node.args:
            return
        self._record_metered_keys(node.args[0], node)

    def _harvest_billing_key_binding(
        self, targets: list[ast.AST], value: ast.AST, node: ast.AST
    ) -> None:
        """``billing_key = ...`` bindings name the key a later keyed op
        records under — the binding is where the runtime choice happens
        (the keyed op itself sees only a bare local), so it is the site
        the coverage check harvests."""
        if any(
            isinstance(target, ast.Name)
            and (target.id == "billing_key" or target.id.endswith("_billing_key"))
            for target in targets
        ):
            self._record_metered_keys(value, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._harvest_billing_key_binding(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._harvest_billing_key_binding([node.target], node.value, node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_pl002_meter_touch(node)
        self._check_pl005_router_write(node)
        self.generic_visit(node)

    def _check_pl002_meter_touch(self, node: ast.Attribute) -> None:
        if not self.library or not _self_attr(node, "_meter"):
            return
        if self._with_scoped_depth or any(self._service_class_stack):
            return  # recording spend is a service class's job
        self.flag(
            "PL002",
            node,
            "self._meter touched outside a service class and outside any "
            "Meter.scoped block",
            "record through the service that owns the meter reference "
            "(its __init__ assigns self._meter), or inside a "
            "`with meter.scoped()` block",
        )

    # -- PL003: determinism -------------------------------------------------

    def _check_pl003(self, node: ast.Call) -> None:
        if not self.library:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            module = self.imports.modules.get(owner)
            if module in ("time",) and func.attr in WALL_CLOCK_CALLS["time"]:
                self.flag(
                    "PL003",
                    node,
                    f"wall-clock call {owner}.{func.attr}() in simulation code",
                    "read simulated time from the world's SimClock instead",
                )
                return
            if (
                owner in ("datetime", "date")
                and func.attr in WALL_CLOCK_CALLS.get(owner, ())
                and (
                    module == "datetime"
                    or self.imports.from_names.get(owner, "").startswith("datetime.")
                )
            ):
                self.flag(
                    "PL003",
                    node,
                    f"wall-clock call {owner}.{func.attr}() in simulation code",
                    "read simulated time from the world's SimClock instead",
                )
                return
            if module == "random":
                if func.attr == "Random" and node.args:
                    return  # seeded constructor — the rng-family idiom
                what = (
                    "unseeded random.Random()"
                    if func.attr == "Random"
                    else f"module-level random.{func.attr}()"
                )
                self.flag(
                    "PL003",
                    node,
                    f"{what} draws from global, unseeded state",
                    "derive a stream from make_rng_family(seed) or construct "
                    "random.Random(seed) with an explicit seed",
                )

    # -- PL004: serializer discipline ---------------------------------------

    def _check_pl004_split(self, node: ast.Call) -> None:
        func = node.func
        surgery = {"split", "rsplit", "partition", "rpartition", "startswith", "endswith"}
        if not (isinstance(func, ast.Attribute) and func.attr in surgery):
            return
        for arg in node.args:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and VREF_MARKER in arg.value
            ):
                self.flag(
                    "PL004",
                    node,
                    f"manual {VREF_MARKER!r} key surgery via "
                    f".{func.attr}({arg.value!r})",
                    "use ObjectRef.encode()/decode() (repro.passlib) — ad-hoc "
                    "parsing corrupts pathological names (the PR 6 COPY bug)",
                )
                return

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        has_format = any(isinstance(v, ast.FormattedValue) for v in node.values)
        builds_ref = any(
            isinstance(v, ast.Constant)
            and isinstance(v.value, str)
            and VREF_MARKER in v.value
            for v in node.values
        )
        if has_format and builds_ref:
            self.flag(
                "PL004",
                node,
                f"f-string hand-builds a {VREF_MARKER!r} versioned reference",
                "use ObjectRef.encode() (repro.passlib) so the wire format "
                "stays in one place",
            )
        self.generic_visit(node)

    # -- PL005: router-handle discipline -------------------------------------

    def _routing_layer(self) -> bool:
        posix = self.path.as_posix()
        return "repro/sharding" in posix or "repro/migration/" in posix

    def _check_pl005_construction(self, node: ast.Call) -> None:
        if not self.library or self._routing_layer():
            return
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "ShardRouter":
            self.flag(
                "PL005",
                node,
                "bare ShardRouter construction outside the routing layer",
                "obtain routing via repro.migration.handle.fresh_handle(...) "
                "(or as_handle) and hold the RouterHandle",
            )

    def _check_pl005_router_write(self, node: ast.Attribute) -> None:
        if not self.library or self._routing_layer():
            return
        if node.attr == "router" and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.flag(
                "PL005",
                node,
                "write to a .router attribute outside the routing layer",
                "route layout changes through RouterHandle.swap()/the "
                "LiveMigration state machine instead of swapping routers",
            )


# --------------------------------------------------------------------------
# Repo-level PL002 cross-check (meter keys <-> price book)
# --------------------------------------------------------------------------


class RepoData:
    """Facts gathered across files for repo-level checks."""

    def __init__(self) -> None:
        #: (key, path, line); keys starting with "$" name billing constants.
        self.metered_keys: list[tuple[str, str, int]] = []
        self.billing_constants: dict[str, str] = {}
        #: (label, line) price lines found in PriceBook.cost.
        self.price_lines: list[tuple[str, int]] = []
        self.billing_path: Path | None = None

    def harvest_billing(self, path: Path, tree: ast.Module) -> None:
        self.billing_path = path
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    self.billing_constants[target.id] = node.value.value
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and node.name == "cost"):
                continue
            for call in ast.walk(node):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "append"
                ):
                    continue
                for arg in call.args:
                    if isinstance(arg, ast.Tuple) and arg.elts:
                        label = arg.elts[0]
                        if isinstance(label, ast.Constant) and isinstance(
                            label.value, str
                        ):
                            self.price_lines.append((label.value, call.lineno))

    def cross_check(self) -> list[Finding]:
        if self.billing_path is None:
            return []  # billing.py not in the scanned set — nothing to check
        findings: list[Finding] = []
        posix = self.billing_path.as_posix()

        resolved: dict[str, tuple[str, int]] = {}
        for key, path, line in self.metered_keys:
            if key.startswith("$"):
                constant = self.billing_constants.get(key[1:])
                if constant is None:
                    continue
                key = constant
            resolved.setdefault(key, (path, line))

        # A service key's price lines share its dotted prefix:
        # "dynamodb-gsi" -> "dynamodb.gsi.*". Ownership is exclusive by
        # longest prefix over every key billing.py *declares* (its
        # string constants) plus any literal keys metered directly:
        # "dynamodb.gsi.range.read_units" belongs to
        # "dynamodb-gsi-range" alone, never to the shorter
        # "dynamodb-gsi" — so a sub-service's price line cannot hide
        # behind its parent's prefix when the sub-service is never
        # metered, and every metered key must own at least one line
        # outright.
        declared = set(self.billing_constants.values()) | set(resolved)
        prefixes = {key: key.replace("-", ".") + "." for key in declared}

        def owner_of(label: str) -> str | None:
            matching = [
                key for key, prefix in prefixes.items() if label.startswith(prefix)
            ]
            if not matching:
                return None
            return max(matching, key=lambda key: len(prefixes[key]))

        owned: dict[str, list[str]] = {}
        for label, _ in self.price_lines:
            owner = owner_of(label)
            if owner is not None:
                owned.setdefault(owner, []).append(label)

        for key, (path, line) in sorted(resolved.items()):
            if not owned.get(key):
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        rule="PL002",
                        message=(
                            f"service key {key!r} is metered but owns no "
                            f"'{prefixes[key]}*' line in PriceBook.cost "
                            "(longest-prefix ownership)"
                        ),
                        hint="add the price line (metered spend must be billable)",
                    )
                )
        for label, line in sorted(self.price_lines):
            owner = owner_of(label)
            if owner is not None and owner in resolved:
                continue
            detail = (
                f"is owned by declared key {owner!r} which is never metered"
                if owner is not None
                else "matches no metered service key"
            )
            findings.append(
                Finding(
                    path=posix,
                    line=line,
                    col=0,
                    rule="PL002",
                    message=f"price line {label!r} {detail} (dead price line)",
                    hint="meter the service or delete the line",
                )
            )
        return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(path)
        for candidate in sorted(path.rglob("*.py")):
            relative = candidate.relative_to(path)
            parents = [path / p for p in relative.parents if str(p) != "."]
            if any((parent / IGNORE_MARKER).exists() for parent in parents + [path]):
                continue
            if any(part.startswith(".") for part in candidate.parts):
                continue
            yield candidate


def check_source(source: str, path: Path, repo_data: RepoData | None = None) -> list[Finding]:
    """Check one module's source text (the unit-test entry point)."""
    repo = repo_data if repo_data is not None else RepoData()
    tree = ast.parse(source, filename=str(path))
    if path.as_posix().endswith("repro/aws/billing.py"):
        repo.harvest_billing(path, tree)
    findings = FileChecker(path, tree, repo).run()
    if repo_data is None:
        findings.extend(repo.cross_check())
    return findings


def check_paths(paths: Iterable[Path]) -> list[Finding]:
    """Check files/trees; repo-level rules see the whole set at once."""
    repo = RepoData()
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            findings.append(
                Finding(
                    path=path.as_posix(), line=1, col=0, rule="PL000",
                    message=f"unreadable: {error}", hint="fix file permissions",
                )
            )
            continue
        try:
            findings.extend(check_source(source, path, repo))
        except SyntaxError as error:
            findings.append(
                Finding(
                    path=path.as_posix(), line=error.lineno or 1, col=0,
                    rule="PL000", message=f"syntax error: {error.msg}",
                    hint="fix the syntax error",
                )
            )
    findings.extend(repo.cross_check())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="provlint", description="AST invariant checker for the simulated cloud"
    )
    parser.add_argument("paths", nargs="*", default=["src"], type=Path)
    parser.add_argument(
        "--json", action="store_true", help="emit findings as a JSON array"
    )
    args = parser.parse_args(argv)
    paths = [Path(p) for p in args.paths] or [Path("src")]
    findings = check_paths(paths)
    if args.json:
        print(json.dumps([f.to_json() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"provlint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
