"""Build script: compiles the optional stepping kernel when a toolchain exists.

The kernel is the hand-written CPython extension src/haltlab/_stepper.c; it
needs only a C compiler and the Python headers. Build it in place with

    python3 setup.py build_ext --inplace

The package is fully functional without the extension; haltlab.vm falls back to
the pure-Python kernel at import time.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Swallow compiler failures so the pure-Python install still succeeds."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any build failure is non-fatal
            print(f"haltlab: skipping compiled kernel ({exc!r})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"haltlab: skipping {ext.name} ({exc!r})")


setup(
    ext_modules=[Extension("haltlab._stepper", ["src/haltlab/_stepper.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
