"""`python -m jackideal ...` runs the command-line front end (cli.main)."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
