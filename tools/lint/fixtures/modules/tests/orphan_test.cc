// Fixture: tests do not keep a header alive. Never compiled.
#include "orphan.h"
#include "oracle.h"
