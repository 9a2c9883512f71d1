"""provlint: each rule fires exactly where the fixtures say, and nowhere
else — and the repo's own tree is clean.

The known-bad fixtures live in ``provlint_fixtures/`` (directory-walk
skipped via its ``.provlint-ignore`` marker) and annotate every line a
rule must fire on with a trailing ``# expect: PL00x`` comment. The tests
feed each fixture to :func:`repro.devtools.provlint.check_source` under a
synthetic library path — the rules are pure functions of (source, path),
so a fixture stored under ``tests/`` can exercise the library-only rules.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.devtools import provlint

FIXTURES = Path(__file__).resolve().parent / "provlint_fixtures"
REPO = Path(__file__).resolve().parents[2]

#: fixture file -> synthetic path it is checked under. pl005 must sit
#: outside the routing layer.
SYNTHETIC_PATHS = {
    "pl002_bad.py": "src/repro/core/pl002_bad.py",
    "pl003_bad.py": "src/repro/query/pl003_bad.py",
    "pl004_bad.py": "src/repro/core/pl004_bad.py",
    "pl005_bad.py": "src/repro/query/pl005_bad.py",
}

_EXPECT = re.compile(r"#\s*expect:\s*(PL\d{3}(?:\s*,\s*PL\d{3})*)")


def expected_findings(source: str) -> set[tuple[int, str]]:
    """The (line, rule) pairs a fixture's trailing comments demand."""
    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            for rule in re.split(r"\s*,\s*", match.group(1)):
                expected.add((lineno, rule))
    return expected


@pytest.mark.parametrize("fixture", sorted(SYNTHETIC_PATHS))
def test_fixture_fires_exactly_where_annotated(fixture):
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    expected = expected_findings(source)
    assert expected, f"fixture {fixture} has no # expect: annotations"
    findings = provlint.check_source(source, Path(SYNTHETIC_PATHS[fixture]))
    got = {(f.line, f.rule) for f in findings}
    assert got == expected


@pytest.mark.parametrize("fixture", sorted(SYNTHETIC_PATHS))
def test_fixture_findings_carry_fix_hints(fixture):
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    for finding in provlint.check_source(source, Path(SYNTHETIC_PATHS[fixture])):
        assert finding.hint, finding
        rendered = finding.render()
        assert finding.rule in rendered
        assert f":{finding.line}:" in rendered


def test_repo_src_is_clean():
    """The acceptance bar: provlint over the real tree finds nothing."""
    assert provlint.check_paths([REPO / "src"]) == []


def test_repo_tests_and_benchmarks_are_clean():
    findings = provlint.check_paths([REPO / "tests", REPO / "benchmarks"])
    assert findings == []


def test_ignore_marker_hides_fixture_dir_from_walks():
    walked = list(provlint.iter_python_files([Path(__file__).resolve().parent]))
    assert not any("provlint_fixtures" in p.as_posix() for p in walked)
    # ...but naming a fixture file explicitly still checks it.
    explicit = list(provlint.iter_python_files([FIXTURES / "pl004_bad.py"]))
    assert explicit == [FIXTURES / "pl004_bad.py"]


def test_allowlist_covers_the_mechanism_not_consumers():
    source = "def version_of(key):\n    return key.rsplit(':v', 1)[1]\n"
    assert provlint.check_source(source, Path("src/repro/passlib/records.py")) == []
    assert provlint.check_source(source, Path("src/repro/aws/s3.py"))


# -- PL002 repo-level cross-check (meter keys <-> price book) --------------

MINI_BILLING = '''\
S3 = "s3"
PHANTOM = "phantom"


class PriceBook:
    def cost(self, usage):
        lines = []
        lines.append(("s3.requests", 1.0))
        lines.append(("orphan.requests", 2.0))
        return lines
'''

MINI_CONSUMER = '''\
from repro.aws.billing import PHANTOM, S3


class Svc:
    def serve(self, meter):
        meter.record_request(S3, "GetObject")
        meter.record_request(PHANTOM, "Conjure")
'''


def test_cross_check_flags_unpriced_key_and_dead_price_line():
    repo = provlint.RepoData()
    provlint.check_source(MINI_BILLING, Path("src/repro/aws/billing.py"), repo)
    provlint.check_source(MINI_CONSUMER, Path("src/repro/aws/svc.py"), repo)
    findings = repo.cross_check()
    assert {(f.rule, f.path) for f in findings} == {
        ("PL002", "src/repro/aws/svc.py"),       # 'phantom' metered, unpriced
        ("PL002", "src/repro/aws/billing.py"),   # 'orphan.*' priced, unmetered
    }
    messages = " | ".join(f.message for f in findings)
    assert "'phantom'" in messages
    assert "'orphan.requests'" in messages


def test_cross_check_clean_when_keys_and_prices_agree():
    billing = MINI_BILLING.replace('lines.append(("orphan.requests", 2.0))\n        ', "")
    consumer = MINI_CONSUMER.replace('        meter.record_request(PHANTOM, "Conjure")\n', "")
    repo = provlint.RepoData()
    provlint.check_source(billing, Path("src/repro/aws/billing.py"), repo)
    provlint.check_source(consumer, Path("src/repro/aws/svc.py"), repo)
    assert repo.cross_check() == []


SUB_SERVICE_BILLING = '''\
DDB_GSI = "dynamodb-gsi"
DDB_GSI_RANGE = "dynamodb-gsi-range"


class PriceBook:
    def cost(self, usage):
        lines = []
        lines.append(("dynamodb.gsi.read_units", 1.0))
        lines.append(("dynamodb.gsi.range.read_units", 2.0))
        return lines
'''


def test_longest_prefix_ownership_rejects_sub_service_freeloading():
    """A 'dynamodb.gsi.range.*' price line may not ride on the shorter
    'dynamodb-gsi' prefix: with only the parent metered, the sub-service
    line is dead, and the parent still owns its own line."""
    consumer = '''\
from repro.aws.billing import DDB_GSI


class Svc:
    def serve(self, meter):
        meter.record_request(DDB_GSI, "Query")
'''
    repo = provlint.RepoData()
    provlint.check_source(SUB_SERVICE_BILLING, Path("src/repro/aws/billing.py"), repo)
    provlint.check_source(consumer, Path("src/repro/aws/svc.py"), repo)
    findings = repo.cross_check()
    assert len(findings) == 1
    assert findings[0].rule == "PL002"
    assert "'dynamodb.gsi.range.read_units'" in findings[0].message
    assert "dead price line" in findings[0].message


def test_billing_key_binding_collects_both_conditional_branches():
    """The dynamo idiom: the key is chosen by a conditional bound to a
    ``billing_key`` local (or parameter default), and the keyed op sees
    only the bare name — the binding site is what the collector reads,
    and both branches count as metered."""
    consumer = '''\
from repro.aws import billing


class Svc:
    def query(self, meter, ranged):
        billing_key = (
            billing.DDB_GSI_RANGE if ranged else billing.DDB_GSI
        )
        self._serve(meter, billing_key)

    def _serve(self, meter, billing_key="dynamodb-gsi"):
        meter.record_request(billing_key, "Query")
'''
    repo = provlint.RepoData()
    provlint.check_source(SUB_SERVICE_BILLING, Path("src/repro/aws/billing.py"), repo)
    provlint.check_source(consumer, Path("src/repro/aws/svc.py"), repo)
    assert repo.cross_check() == []
    keys = {key for key, _, _ in repo.metered_keys}
    assert {"$DDB_GSI_RANGE", "$DDB_GSI", "dynamodb-gsi"} <= keys


def test_real_billing_price_book_matches_real_meter_calls():
    """Every key metered anywhere in src/ has a live price line and
    vice versa — the bidirectional coverage PL002 promises."""
    findings = provlint.check_paths([REPO / "src"])
    assert [f for f in findings if f.rule == "PL002"] == []


# -- CLI ------------------------------------------------------------------


def test_cli_exit_codes_and_rendering(capsys):
    bad = FIXTURES / "pl004_bad.py"
    assert provlint.main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PL004" in out
    assert "finding(s)" in out
    assert provlint.main([str(REPO / "src")]) == 0


def test_cli_json_output(capsys):
    import json

    bad = FIXTURES / "pl004_bad.py"
    assert provlint.main(["--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert all(f["rule"] == "PL004" for f in payload)
    assert {"path", "line", "col", "rule", "message", "hint"} <= set(payload[0])
