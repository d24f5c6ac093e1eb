#!/bin/sh
# CI gate for the SenSocial reproduction: `make ci`, which composes the
# Makefile's build, gofmt, vet, sensolint, race-test, fuzz, bench, chaos,
# durability and metrics smoke targets. Any step failing fails the run.
exec make ci
