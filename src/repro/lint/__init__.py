"""Contract linter for this repo: AST-based static analysis.

The goldens pin *behaviour*; :mod:`repro.lint` pins the *conventions*
that keep the behaviour pinned — determinism of decision paths, seed
flow, and lock and exception discipline in the serving stack.  Metric
names, fault sites and wire-format coverage are not lint rules: they
are declared objects checked when used.  Run it as ``python -m repro.lint [paths]``;
see the README "Static analysis" section for the rule table, pragma
grammar, and baseline workflow.
"""

from .baseline import DEFAULT_BASELINE, Baseline, BaselineEntry
from .callgraph import CallGraph, ClassInfo, FunctionInfo, ModuleInfo
from .cfg import CFG, CFGNode
from .core import Finding, Project, Rule
from .dataflow import fixpoint_over_functions, run_backward, run_forward
from .engine import Engine, LintResult, discover_files
from .rules import ALL_RULES, default_rules, rules_by_id
from .source import SourceFile

__all__ = [
    "ALL_RULES", "Baseline", "BaselineEntry", "CFG", "CFGNode",
    "CallGraph", "ClassInfo", "DEFAULT_BASELINE", "Engine", "Finding",
    "FunctionInfo", "LintResult", "ModuleInfo", "Project", "Rule",
    "SourceFile", "default_rules", "discover_files",
    "fixpoint_over_functions", "run_backward", "run_forward",
    "rules_by_id",
]
