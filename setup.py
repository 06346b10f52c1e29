"""Setuptools configuration for the ReQISC/Regulus reproduction.

Installs the ``repro`` package from ``src/`` and exposes the batch
compilation CLI both as ``python -m repro`` and as the ``repro`` console
script.  The package needs only numpy and scipy at runtime; the ``test``
extra adds pytest, hypothesis, pytest-benchmark (the figure benchmarks
under ``benchmarks/`` use its ``benchmark`` fixture) and networkx, which
the tests use as an oracle for the stdlib graph code.

The native kernels extension (``repro.kernels._native``) holds two
kernels: the SABRE routing loop (the whole step loop, one call per routing
run) and the approximate-synthesis instantiation objective (value and
gradient, one call per L-BFGS-B evaluation).  It is built
opportunistically: when a C compiler is available the extension compiles
and ``repro.kernels`` auto-selects it, and when it is not (or the build
fails for any reason) the install still succeeds and the Python/numpy
fallbacks are selected at runtime — a source install without a toolchain
must never fail.
"""

import os
import sys

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):  # noqa: N801 - setuptools command naming
    """A ``build_ext`` that treats every extension as best-effort.

    ``Extension(optional=True)`` already tolerates the common compiler
    errors; this subclass widens the net to *any* build-time exception
    (missing toolchain, broken headers, exotic platforms) so ``pip
    install .`` cannot be broken by the accelerator.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - tolerate any build failure
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001 - tolerate any build failure
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(
            "WARNING: building the optional repro.kernels native extension "
            f"failed ({exc}); falling back to the pure-Python kernels.",
            file=sys.stderr,
        )


def _long_description() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "README.md")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    return ""


setup(
    name="repro-reqisc",
    version="1.6.0",
    description=(
        "Reproduction of the ReQISC reconfigurable SU(4) quantum ISA: the "
        "genAshN microarchitecture, the Regulus compiler with a first-class "
        "Target / declarative pipeline API, a batch compilation service "
        "with synthesis caching, and an OpenQASM 2 interchange layer."
    ),
    long_description=_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[
        Extension(
            "repro.kernels._native",
            sources=["src/repro/kernels/_native.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
    install_requires=[
        "numpy>=1.21",
        "scipy>=1.7",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark", "networkx"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.service.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Physics",
    ],
)
