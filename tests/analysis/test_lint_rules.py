"""reprolint rule catalogue: every rule's fixtures, suppression mechanics.

Each rule in :data:`repro.analysis.rules.RULES` carries a ``must_flag``
and a ``must_pass`` source fixture; these tests replay them through the
real lint driver (the same check ``lint --self-test`` runs in CI) so a
rule that silently stops firing fails loudly.  The suppression tests pin
the comment grammar: trailing vs. standalone anchoring, multi-line
comment blocks, SUP001/SUP002/SUP003 enforcement.
"""

import ast
import subprocess
import sys
from collections import Counter

import pytest

from repro.analysis.lint import lint_fixture, lint_source, self_test
from repro.analysis.rules import RULES, identifier_uses, knob_settings, rule_tokens

RULE_IDS = [rule.id for rule in RULES]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_must_flag_fixture_fires(rule):
    findings = lint_fixture(rule, rule.must_flag)
    assert any(f.rule == rule.id for f in findings), (
        f"{rule.id} must-flag fixture produced no finding"
    )
    unrelated = [f.rule for f in findings if f.rule != rule.id]
    assert not unrelated, f"{rule.id} fixture leaked other findings: {unrelated}"


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_must_pass_fixture_is_clean(rule):
    findings = lint_fixture(rule, rule.must_pass)
    assert not findings, [f.render() for f in findings]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_suppression_absorbs_each_rule(rule):
    """A correctly anchored, justified suppression silences every rule."""
    flagged = [f for f in lint_fixture(rule, rule.must_flag) if f.rule == rule.id]
    lines = rule.must_flag.splitlines()
    for finding in flagged:
        lines[finding.line - 1] += (
            f"  # reprolint: {rule.token} -- fixture-level justification"
        )
    suppressed = lint_fixture(rule, "\n".join(lines) + "\n")
    assert not any(f.rule == rule.id for f in suppressed), (
        f"{rule.id} finding survived its own suppression token"
    )
    assert not any(f.rule == "SUP003" for f in suppressed)


def test_self_test_passes():
    assert self_test() == []


def test_rule_ids_and_tokens_unique():
    assert len(RULE_IDS) == len(set(RULE_IDS))
    tokens = [rule.token for rule in RULES]
    assert len(tokens) == len(set(tokens))
    assert rule_tokens() == frozenset(tokens)


# ---------------------------------------------------------------------------
# Suppression grammar
# ---------------------------------------------------------------------------
def test_standalone_suppression_binds_to_next_code_line():
    src = (
        "import time\n"
        "\n"
        "\n"
        "def f(m):\n"
        "    # reprolint: wallclock -- replayed timestamp, not wall time\n"
        "    m.at = time.time()\n"
    )
    assert lint_source(src, rel="repro/distributed/_s.py") == []


def test_standalone_suppression_skips_continuation_comments():
    """A suppression opening a multi-line comment block still binds to code."""
    src = (
        "import time\n"
        "\n"
        "\n"
        "def f(m):\n"
        "    # reprolint: wallclock -- replayed timestamp, not wall time\n"
        "    # (this continuation line elaborates on the justification)\n"
        "\n"
        "    m.at = time.time()\n"
    )
    assert lint_source(src, rel="repro/distributed/_s.py") == []


def test_missing_justification_is_sup001():
    src = "import time\n\n\ndef f(m):\n    m.at = time.time()  # reprolint: wallclock\n"
    findings = lint_source(src, rel="repro/distributed/_s.py")
    assert any(f.rule == "SUP001" for f in findings)


def test_unknown_token_is_sup002():
    src = "def f():\n    return 1  # reprolint: bogus-rule -- because\n"
    findings = lint_source(src, rel="repro/distributed/_s.py")
    assert any(f.rule == "SUP002" for f in findings)


def test_unused_suppression_is_sup003():
    src = "def f():\n    return 1  # reprolint: wallclock -- nothing here\n"
    findings = lint_source(src, rel="repro/distributed/_s.py")
    assert any(f.rule == "SUP003" for f in findings)


def test_suppression_in_string_literal_is_ignored():
    src = 'DOC = "# reprolint: wallclock -- not a comment"\n'
    assert lint_source(src, rel="repro/distributed/_s.py") == []


def test_syntax_error_is_parse001():
    findings = lint_source("def broken(:\n", rel="repro/distributed/_s.py")
    assert [f.rule for f in findings] == ["PARSE001"]


def test_protocol_rules_scope_to_protocol_paths():
    """DET003 fires under repro/distributed and repro/core, nowhere else."""
    src = "import time\n\n\ndef f(m):\n    m.at = time.time()\n"
    inside = lint_source(src, rel="repro/distributed/_s.py")
    assert any(f.rule == "DET003" for f in inside)
    outside = lint_source(src, rel="repro/train/_s.py")
    assert not any(f.rule == "DET003" for f in outside)


def test_dead001_needs_the_tree():
    """One file linted on its own says nothing about reachability — and a
    suppression naming the rule is not reported idle by a rule that did
    not run."""
    src = (
        "# reprolint: unreached -- Fig. 3: the curve the bench is checked against\n"
        "def fig3(x):\n"
        "    return x\n"
    )
    assert lint_source(src, rel="repro/core/_s.py") == []
    used = lint_source(src, rel="repro/core/_s.py", tree_uses=Counter(fig3=1))
    assert [f.rule for f in used] == ["SUP003"]


def test_dead001_counts_uses_outside_the_defs_own_body():
    src = (
        "class Walker:\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1) if n else self.rest()\n"
        "\n"
        "    def rest(self):\n"
        "        return Walker\n"
    )
    uses = identifier_uses(ast.parse(src))
    assert uses == Counter({"self": 2, "walk": 1, "n": 2, "rest": 1, "Walker": 1})
    flagged = lint_source(src, rel="repro/core/_s.py", tree_uses=uses)
    # ``rest`` is called from ``walk``; ``walk`` only calls itself and
    # ``Walker`` is named only inside its own body.
    assert sorted(f.message.split("`")[1] for f in flagged) == ["Walker", "Walker.walk"]
    # A keyword, an attribute or an import anywhere else is a use.
    for consumer in ("f(walk=1)", "x.walk", "from m import walk"):
        more = uses + identifier_uses(ast.parse(consumer))
        flagged = lint_source(src, rel="repro/core/_s.py", tree_uses=more)
        assert [f.message.split("`")[1] for f in flagged] == ["Walker"]
    # ... unless the import is a package ``__init__`` re-export.
    assert identifier_uses(ast.parse("from m import walk"), imports=False) == Counter()


KNOB_SRC = (
    "from dataclasses import dataclass, field\n"
    "\n"
    "\n"
    "@dataclass\n"
    "class RunConfig:\n"
    "    epochs: int = 3\n"
    "    momentum: float = 0.9\n"
)


def _knob_findings(src, *consumers):
    sets = knob_settings(ast.parse(src))
    for consumer in consumers:
        sets += knob_settings(ast.parse(consumer))
    return [
        f.message.split("`")[1]
        for f in lint_source(src, rel="repro/core/_s.py", tree_sets=sets)
        if f.rule == "KNOB001"
    ]


def test_knob001_needs_the_tree():
    """One file linted on its own cannot tell whether anything sets a
    field; a suppression naming the rule is not idle there."""
    src = KNOB_SRC.replace(
        "    momentum: float = 0.9\n",
        "    momentum: float = 0.9  # reprolint: knob -- Eq. 5: the paper's β\n",
    )
    assert lint_source(src, rel="repro/core/_s.py") == []
    assert _knob_findings(KNOB_SRC) == ["RunConfig.epochs", "RunConfig.momentum"]


@pytest.mark.parametrize(
    "consumer",
    [
        "RunConfig(momentum=0.5)",
        "RunConfig(3, 0.5)",
        "RunConfig(*spec)",
        "dataclasses.replace(config, momentum=0.5)",
        "config.momentum = 0.5",
        "run.config.momentum *= 0.5",
        "OVERRIDES = {'momentum': 0.5}",
    ],
)
def test_knob001_every_way_of_setting_a_field_counts(consumer):
    assert _knob_findings(KNOB_SRC, "RunConfig(epochs=4)", consumer) == []


@pytest.mark.parametrize(
    "consumer",
    [
        "value = config.momentum",
        "value = getattr(config, 'momentum', None)",
        "known = hasattr(config, 'momentum')",
        "OtherConfig(momentum=0.5)",
        "RunConfig(3)",
        "class Runner:\n    def reset(self):\n        self.momentum = 0.0\n",
    ],
)
def test_knob001_a_read_or_another_class_is_no_setting(consumer):
    assert _knob_findings(KNOB_SRC, "RunConfig(epochs=4)", consumer) == [
        "RunConfig.momentum"
    ]


def test_knob001_exempts_containers_deployment_and_other_dataclasses():
    src = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, Optional\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class ServerConfig:\n"
        "    host: str = '127.0.0.1'\n"
        "    port: int = 0\n"
        "    net: Optional['NetSpec'] = None\n"
        "    kind: ClassVar[str] = 'server'\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class RunReport:\n"
        "    loss: float = 0.0\n"
        "\n"
        "\n"
        "class PlainConfig:\n"
        "    retries: int = 2\n"
    )
    assert _knob_findings(src) == []


def test_cli_self_test_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", "--self-test", "-q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
