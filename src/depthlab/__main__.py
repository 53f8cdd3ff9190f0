"""`python -m depthlab`: the `depthlab` command, its dispatcher loaded once."""
from .cli import main

if __name__ == "__main__":
    main()
