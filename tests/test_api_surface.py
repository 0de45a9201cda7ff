"""API surface: every definition in growfrag is used by growfrag itself.

A module-level function or class, or a public method, that only tests
call is code the program carries for nothing.  The allowlist names the
few kept on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "growfrag"

# eta_estimate, reconstruct_m_phi, lambda2_bound, lambda0_vs_bound and
# SpectralTriple.phi_at are the Fleming-Viot and spectral reports still to
# be wired into the CLI; criterion_reggen is the paper's closed form that
# an acceptance test pins
ALLOWED = {"eta_estimate", "reconstruct_m_phi", "lambda2_bound",
           "lambda0_vs_bound", "SpectralTriple.phi_at", "criterion_reggen"}


def _is_property(func):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in func.decorator_list)


def _definitions(tree):
    """(qualified name, bare name) of the module-level functions and
    classes and of the public methods of those classes; a property is a
    value of its object, not a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("_") and \
                        not _is_property(item):
                    yield f"{node.name}.{item.name}", item.name


def _uses(tree):
    """Names read in a module: loaded identifiers and attribute names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_the_allowlist_is_unused_in_src():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    used = {name for tree in trees for name in _uses(tree)}
    defined = {qualified: name for tree in trees
               for qualified, name in _definitions(tree)}
    unused = {qualified for qualified, name in defined.items()
              if name not in used}
    # an allowlisted name that gains a caller in src leaves the list
    assert unused == ALLOWED
