"""The numbers the README quotes agree with what the tests pin.

The Testing section quotes the step ledger of the degree lab and the
division and Sturm-chain counts of the cusp report; the pinning tests are
read with ``ast``, so a re-cut pin fails here until the README follows it.
The budget paragraph quotes the smallest budget of the cusp report and the
steps it spends in all, which no other test pins; those are re-measured.
"""
import ast
import re
from pathlib import Path

from voronoi_cells import cli, groebner

TESTS = Path(__file__).resolve().parent
README = " ".join((TESTS.parent / "README.md").read_text().split())
CUSP = '{"vars": ["x1", "x2"], "gens": ["x1^3 - x2^2"]}'


def _function(filename: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(ast.parse((TESTS / filename).read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(f"{filename} has no {name}")


def _pinned_length(name: str) -> int:
    """The value test_cli.py's test ``name`` asserts len(calls) equals."""
    for node in ast.walk(_function("test_cli.py", name)):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", None) == "len"):
            return ast.literal_eval(node.comparators[0])
    raise LookupError(f"{name} pins no length")


def _quoted(pattern: str) -> tuple[str, ...]:
    match = re.search(pattern, README)
    assert match, f"the README has no sentence matching {pattern!r}"
    return match.groups()


def test_step_ledger_matches_the_modp_pins():
    # the ledger pins the smallest budget that suffices; the README quotes
    # the largest that runs out
    (decorator,) = _function("test_degrees.py",
                             "test_modp_step_ledger").decorator_list
    pinned = {(n, d, enough - 1)
              for n, d, enough in ast.literal_eval(decorator.args[1])}
    (sentence,) = _quoted(r"runs out of budget at (.*?\)\))")
    quoted = {(int(n), int(d), int(steps)) for steps, n, d in re.findall(
        r"(\d+)(?: steps)? for \((\d+), (\d+)\)", sentence)}
    assert quoted == pinned


def test_division_and_chain_counts_match_the_cusp_pins():
    divisions, chains = _quoted(r"makes exactly (\d+) polynomial divisions "
                                r"and builds (\d+) Sturm chains")
    assert int(divisions) == _pinned_length(
        "test_cusp_report_runs_each_euclid_once")
    assert int(chains) == _pinned_length(
        "test_cusp_report_builds_four_sturm_chains")


def test_cusp_budget_sentence(capsys, monkeypatch):
    budget, spent = map(int, _quoted(
        r"the cusp at \(4, 8\) succeeds with `--budget (\d+)` while it "
        r"spends (\d+) steps in all"))
    steps = []
    tick = groebner._Engine.tick

    def counted(self):
        steps.append(1)
        tick(self)

    monkeypatch.setattr(groebner._Engine, "tick", counted)
    argv = ["voronoi", CUSP, "--point", '["4", "8"]']
    assert cli.main(argv) == 0
    assert len(steps) == spent
    assert cli.main(argv + ["--budget", str(budget)]) == 0
    assert cli.main(argv + ["--budget", str(budget - 1)]) == 2
    capsys.readouterr()
