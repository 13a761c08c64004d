# Every target but clean is a tier of scripts/check.sh, which holds the
# tier table: `make check` runs them all, `make race artifact` those two.

check:
	@scripts/check.sh

clean:
	go clean ./...

# Keep make from trying to rebuild this file through the rule below.
Makefile: ;

%:
	@scripts/check.sh $@

.PHONY: check clean
