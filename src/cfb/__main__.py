"""`python -m cfb`: the command line, without the `cfb` console script installed."""

from .cli_reports import main

if __name__ == "__main__":
    main()
