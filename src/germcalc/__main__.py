"""`python -m germcalc`: the command line of `germcalc.cli`.

The guard keeps an import of this module, such as a walk over the
package's modules, from running the command line."""

from .cli import main

if __name__ == "__main__":
    main()
