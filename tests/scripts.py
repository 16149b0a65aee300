"""Load a repository script that is not part of the package as a module."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def load_script(path: str, name: str):
    """Execute the file at ``path`` (relative to the repository root) as ``name``."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
