"""``python -m semishot``: the ``semishot`` command without installing it."""

from .cli import run

if __name__ == "__main__":
    run()
