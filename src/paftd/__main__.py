"""``python -m paftd``: the ``paftd`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
