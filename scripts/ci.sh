#!/bin/sh
# CI entry point. The Makefile is the one description of what CI runs.
cd "$(dirname "$0")/.." && exec make ci
