"""Packaging for the C2PI reproduction.

A classic setup.py (instead of PEP 621 metadata) so that fully offline
environments without the `wheel` package can still install editable via
`python setup.py develop`; `pip install -e .` works wherever wheel is
available.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "C2PI: crypto-clear two-party neural network private inference "
        "(DAC 2023) - full reproduction"
    ),
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=2.0", "scipy>=1.10"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["c2pi=repro.cli:main"]},
)
