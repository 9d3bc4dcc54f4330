"""The wall-clock HyperModel benchmark (see ``bench/README.md``).

Self-contained: nothing under ``src/`` imports this package, and this
package touches the program only through its public surfaces.
"""
