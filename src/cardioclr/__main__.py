"""`python -m cardioclr`: the same command line as the `cardioclr` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
