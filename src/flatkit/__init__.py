"""flatkit: exact-arithmetic toolkit for translation surfaces and origamis.

The submodules load on first access (PEP 562), so `import flatkit.cli` or
`from flatkit import strata` compiles only the modules that are used.
"""

__version__ = "0.1.0"

__all__ = ["flatcore", "origami", "spin", "strata", "hyperell", "gl2", "cli", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        from importlib import import_module

        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
