"""Build script: the stepping kernel src/haltlab/_stepper.c is an optional
extension, so a missing compiler or a failed build only warns, and haltlab.vm
falls back to the pure-Python kernel at import time. Build it in place with

    python3 setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[Extension("haltlab._stepper", ["src/haltlab/_stepper.c"], optional=True)],
)
