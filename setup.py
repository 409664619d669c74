"""Setuptools entry point (kept for offline/legacy editable installs)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Network-Attack-Resilient Intrusion-Tolerant "
        "SCADA for the Power Grid' (Spire, DSN 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
)
