"""Package metadata and legacy setup shim.

This file is the package's only build configuration (there is no
``pyproject.toml``).  The offline build environment lacks the ``wheel``
package, so PEP 660 editable installs fail; ``pip install -e .`` then
takes the legacy ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Smartpick reproduction: workload prediction for serverless-enabled "
        "scalable data analytics (Middleware '23)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
)
