"""What a fresh command-line process does before any numerics: import the
package and its CLI, then parse the expressions given as arguments.

    PYTHONPATH=src python3 perfbench/cold_start.py "1/(1-z)" ...

run.py times this script from outside, interpreter start-up included.
"""
import sys

import disknorms
import disknorms.cli

for text in sys.argv[1:]:
    disknorms.parse(text)
