"""One module per `depthlab` subcommand, each with `arguments(parser)`
and `run(args)`; `cli` imports only the one a run names."""
