"""Baseline DM range indexes the paper compares CHIME against, one
module per family (imported from there: this package re-exports
nothing, so building one family loads no other)."""
