"""Setup shim: metadata lives in pyproject.toml.

The legacy path (``setup.py develop``) is kept because the execution
environment has no network access and no ``wheel`` package, which PEP 517
editable builds require.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "SLAM-Share (CoNEXT 2022) reproduction: edge-assisted multi-user "
        "visual-inertial SLAM for AR"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis", "scipy"]},
)
