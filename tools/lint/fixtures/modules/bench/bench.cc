// Fixture: a bench. Never compiled.
#include "common.h"
