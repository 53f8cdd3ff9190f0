"""depthlab: a desk-scale workbench for time-bounded program-size
complexity on one pinned prefix-free oracle register machine.

The package is organised around the machine in :mod:`depthlab.toyvm`;
everything else measures it: brute-force complexity (:mod:`.complexity`),
staged semimeasures (:mod:`.semimeasure`), martingales and randomness
probes (:mod:`.randomness`), finite-extension and depth-profile
constructions (:mod:`.constructions`) and pruning-schedule forcing
(:mod:`.pi01forcing`).  Bit strings, input files, number parsing and the
failures a command reports live in the machine-free leaf :mod:`.bits`.
``depthlab`` on the command line fronts the lot (:mod:`.cli`, one module
per subcommand in :mod:`.commands`), and ``depthlab selftest`` checks it
(:mod:`.selftest`).

The package root re-exports nothing: import names from the submodules,
so that importing one loads only it and what it depends on.
"""
