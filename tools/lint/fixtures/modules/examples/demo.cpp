// Fixture: an example. Never compiled.
#include "stale.h"
#include "used.h"
