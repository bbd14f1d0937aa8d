#pragma once
// Fixture: a bench-local header that shadows src/common.h.
