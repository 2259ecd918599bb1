"""Build script: compiles the optional C extension when a C compiler exists.

The package is pure Python plus one optional speedup, `slin._rk4`, written in
plain C against the CPython API: the RK4 stepping kernel, the evaluation of
a lift's start state, the projection error of the numeric check and the
formatter of trajectory CSV rows. A missing compiler must never block
installation (the import falls back to the pure twins).
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Give up on the extension instead of failing the whole install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: building the RK4 extension failed ({exc}); "
                  "falling back to the pure-Python kernel")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to the pure-Python kernel")


ext_modules = [
    Extension(
        "slin._rk4",
        ["src/slin/_rk4.c"],
        # Bit-for-bit agreement with the pure kernel forbids fused
        # multiply-adds, which round once where Python rounds twice.
        extra_compile_args=["-ffp-contract=off"],
    )
]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
